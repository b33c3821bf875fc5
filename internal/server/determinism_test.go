package server

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/isa"
	"repro/internal/obs"
)

// TestServingPathDeterminism is the serving-path determinism contract: a
// job served cold, the same tuple served from the cache, and the same tuple
// re-executed by the throughput engine (at two host-proc counts) with the
// cache bypassed all return
// byte-identical Result, metrics, profile, and trace — and all match a
// direct core.Run with an obs collector, outside the server entirely.
func TestServingPathDeterminism(t *testing.T) {
	s := New(Config{QueueBound: 8, HostProcs: 2, CacheEntries: 16})
	defer s.Drain()

	submit := func(req JobRequest) *JobOutput {
		t.Helper()
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		awaitDone(t, j)
		if st := jobState(s, j); st != StateDone {
			t.Fatalf("state = %s (%s), want done", st, jobErr(s, j))
		}
		return j.out
	}

	base := JobRequest{App: "fib", Mode: "st", Workers: 4, Seed: 3}
	cold := submit(base)
	hit := submit(base)
	tp4 := submit(JobRequest{App: "fib", Mode: "st", Workers: 4, Seed: 3,
		Engine: "throughput", HostProcs: 4, NoCache: true})
	tp := submit(JobRequest{App: "fib", Mode: "st", Workers: 4, Seed: 3,
		Engine: "throughput", NoCache: true})

	// Direct execution: same tuple, no server, no cache.
	w, err := figures.Workload("fib", figures.Quick, apps.ST)
	if err != nil {
		t.Fatal(err)
	}
	col := obs.New()
	res, err := core.Run(w, core.Config{
		Mode: core.StackThreads, Workers: 4, Seed: 3,
		CPU: isa.CostModelByName("sparc"), Obs: col,
	})
	if err != nil {
		t.Fatal(err)
	}
	mjson, err := col.Metrics.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var prof, tr bytes.Buffer
	col.WriteReport(&prof)
	if err := col.WriteChromeTrace(&tr); err != nil {
		t.Fatal(err)
	}

	check := func(name string, out *JobOutput) {
		t.Helper()
		if !reflect.DeepEqual(out.Result, res) {
			t.Errorf("%s: Result differs from direct run:\n  served: %+v\n  direct: %+v",
				name, out.Result, res)
		}
		if !bytes.Equal(out.Metrics, mjson) {
			t.Errorf("%s: metrics differ from direct run", name)
		}
		if out.Profile != prof.String() {
			t.Errorf("%s: profile differs from direct run", name)
		}
		if !bytes.Equal(out.Trace, tr.Bytes()) {
			t.Errorf("%s: trace differs from direct run", name)
		}
	}
	check("cold", cold)
	check("cache-hit", hit)
	check("throughput-engine-4procs", tp4)
	check("throughput-engine", tp)
}

// TestServerDefaultEngine checks Config.DefaultEngine fills requests that
// leave the engine unset — and only those — and that the served bytes stay
// identical to an explicit sequential run (the engines are
// result-equivalent, so the default shifts wall-clock, never output).
func TestServerDefaultEngine(t *testing.T) {
	s := New(Config{QueueBound: 8, HostProcs: 2, CacheEntries: -1,
		DefaultEngine: "throughput"})
	defer s.Drain()

	submit := func(req JobRequest) *Job {
		t.Helper()
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		awaitDone(t, j)
		if st := jobState(s, j); st != StateDone {
			t.Fatalf("state = %s (%s), want done", st, jobErr(s, j))
		}
		return j
	}

	def := submit(JobRequest{App: "fib", Mode: "st", Workers: 4, Seed: 3})
	if def.Req.Engine != "throughput" {
		t.Fatalf("default not applied: engine = %q", def.Req.Engine)
	}
	exp := submit(JobRequest{App: "fib", Mode: "st", Workers: 4, Seed: 3,
		Engine: "sequential"})
	if exp.Req.Engine != "sequential" {
		t.Fatalf("explicit engine overridden: %q", exp.Req.Engine)
	}
	if !reflect.DeepEqual(def.out.Result, exp.out.Result) {
		t.Fatalf("default-engine result differs from sequential:\n  %+v\n  %+v",
			def.out.Result, exp.out.Result)
	}
}

// TestCacheKeyJITAgnostic pins the cache-sharing contract for the trace
// JIT: the JIT changes host speed only, never artifact bytes (the lockstep
// and equivalence suites prove it), so the cache key must NOT vary with it.
// A result computed by a JIT-enabled node serves requests from JIT-disabled
// nodes and vice versa — and a checkpoint written by one resumes on the
// other (see sched's TestRoundTripJITCross).
func TestCacheKeyJITAgnostic(t *testing.T) {
	req := JobRequest{App: "fib", Mode: "st", Workers: 4, Seed: 3}
	norm, err := req.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	plainKey := norm.CacheKey()

	// Same request normalized under a forced JIT environment: same key.
	t.Setenv("ST_JIT", "1")
	norm2, err := req.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if got := norm2.CacheKey(); got != plainKey {
		t.Fatalf("CacheKey varies with ST_JIT:\n  plain: %s\n  jit:   %s", plainKey, got)
	}

	// And a server executing under that environment serves byte-identical
	// artifacts, so the shared key is sound.
	serve := func() *JobOutput {
		t.Helper()
		s := New(Config{QueueBound: 4, HostProcs: 2, CacheEntries: -1})
		defer s.Drain()
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		awaitDone(t, j)
		if st := jobState(s, j); st != StateDone {
			t.Fatalf("state = %s (%s), want done", st, jobErr(s, j))
		}
		return j.out
	}
	jitOut := serve()
	t.Setenv("ST_JIT", "0")
	plainOut := serve()
	if !reflect.DeepEqual(plainOut.Result, jitOut.Result) {
		t.Fatalf("Result differs across ST_JIT:\n  plain: %+v\n  jit:   %+v", plainOut.Result, jitOut.Result)
	}
	if !bytes.Equal(plainOut.Metrics, jitOut.Metrics) {
		t.Fatal("metrics differ across ST_JIT")
	}
	if plainOut.Profile != jitOut.Profile {
		t.Fatal("profile differs across ST_JIT")
	}
	if !bytes.Equal(plainOut.Trace, jitOut.Trace) {
		t.Fatal("trace differs across ST_JIT")
	}
}
