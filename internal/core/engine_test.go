package core

import (
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/sched"
)

// TestParseEngine is the table test for command-line engine names: every
// alias maps to its engine, and unknown names — including the deleted
// parallel engine's — fail with an error that lists the valid engines.
func TestParseEngine(t *testing.T) {
	for _, tc := range []struct {
		in      string
		want    Engine
		wantErr bool
	}{
		{"", EngineDefault, false},
		{"default", EngineDefault, false},
		{"seq", EngineSequential, false},
		{"sequential", EngineSequential, false},
		{"tp", EngineThroughput, false},
		{"par", EngineDefault, true},
		{"parallel", EngineDefault, true},
		{"throughput", EngineThroughput, false},
		{"Sequential", EngineDefault, true},
		{"fast", EngineDefault, true},
		{"parallel ", EngineDefault, true},
	} {
		got, err := ParseEngine(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseEngine(%q): no error", tc.in)
				continue
			}
			if !strings.Contains(err.Error(), validList) {
				t.Errorf("ParseEngine(%q) error %q does not list %q", tc.in, err, validList)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseEngine(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseEngine(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// validList is the valid-engines clause every engine-name error carries.
const validList = "valid engines: sequential, throughput)"

// TestEngineEnvResolution checks ST_ENGINE resolution: valid values select
// their engine, and unknown values (the deleted parallel engine's name
// among them) fail the run with an error listing the valid engines instead
// of silently falling back to sequential.
func TestEngineEnvResolution(t *testing.T) {
	for _, tc := range []struct {
		env  string
		want sched.Engine
	}{
		{"", sched.EngineSequential},
		{"sequential", sched.EngineSequential},
		{"throughput", sched.EngineThroughput},
	} {
		t.Setenv("ST_ENGINE", tc.env)
		got, err := EngineDefault.schedEngine()
		if err != nil {
			t.Fatalf("ST_ENGINE=%q: %v", tc.env, err)
		}
		if got != tc.want {
			t.Fatalf("ST_ENGINE=%q resolved to %v, want %v", tc.env, got, tc.want)
		}
	}

	// An explicit engine ignores the environment entirely.
	t.Setenv("ST_ENGINE", "garbage")
	if got, err := EngineThroughput.schedEngine(); err != nil || got != sched.EngineThroughput {
		t.Fatalf("explicit engine consulted ST_ENGINE: %v, %v", got, err)
	}

	// An unknown forced engine must fail the run — whatever the mode — not
	// silently run sequentially.
	for _, env := range []string{"garbage", "parallel"} {
		t.Setenv("ST_ENGINE", env)
		for _, mode := range []Mode{Sequential, StackThreads, Cilk} {
			_, err := Run(apps.Fib(5, apps.ST), Config{Mode: mode, Workers: 2})
			if err == nil {
				t.Fatalf("mode=%v: run with ST_ENGINE=%s succeeded", mode, env)
			}
			for _, want := range []string{"ST_ENGINE", validList} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("mode=%v: error %q does not mention %q", mode, err, want)
				}
			}
		}
	}
}
