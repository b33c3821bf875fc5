package sched

import (
	"errors"
	"testing"

	"repro/internal/apps"
	"repro/internal/exportset"
	"repro/internal/invariant"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
)

// These tests are the auditor's negative control: a live checker that
// reports zero violations on every clean run is only evidence if it also
// fires on a deliberately broken one. testHookSabotage mutates runtime or
// scheduler state from inside a pick boundary — right before the audit of
// that same pick — and the run must abort with a typed
// invariant.Violation, not complete and not crash.

// sabotageRun drives a workload with the auditor at cadence 1 and the
// given sabotage hook installed, returning the run error.
func sabotageRun(t *testing.T, engine Engine, hook func(s *scheduler)) error {
	t.Helper()
	w := apps.Fib(16, apps.ST)
	prog, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	heap := w.HeapWords
	if heap == 0 {
		heap = 1 << 20
	}
	m := machine.New(prog, mem.New(heap), isa.SPARC(), 4, machine.Options{Seed: 1})
	testHookSabotage = hook
	defer func() { testHookSabotage = nil }()
	_, err = Run(m, w.Entry, w.Args, Config{
		Mode: ModeST, Seed: 1, Engine: engine, HostProcs: 4,
		Audit: invariant.New(1),
	})
	return err
}

// TestAuditorCatchesSabotagedMachine plants a frame in a worker's exported
// set that the max-E protocol never published. The §3.2 audit at the same
// pick must return a typed section-3.2 violation on every engine.
func TestAuditorCatchesSabotagedMachine(t *testing.T) {
	for _, engine := range []Engine{EngineSequential, EngineThroughput} {
		armed := false
		err := sabotageRun(t, engine, func(s *scheduler) {
			if armed {
				return
			}
			w0 := s.m.Workers[0]
			// Only corrupt when the audit will actually examine worker 0
			// this pick, so the phantom frame is caught before any
			// simulated instruction can run over it.
			if w0.AtFrameTransition() {
				return
			}
			lo := w0.Stack().Lo
			w0.Exported().Push(exportset.Entry{FP: lo + 6, Low: lo + 2})
			armed = true
		})
		if !armed {
			t.Fatalf("engine=%v: sabotage hook never fired", engine)
		}
		var v *invariant.Violation
		if !errors.As(err, &v) {
			t.Fatalf("engine=%v: sabotaged machine not caught: %v", engine, err)
		}
		if v.Rule != "section-3.2" {
			t.Fatalf("engine=%v: wrong rule %q: %v", engine, v.Rule, v)
		}
		if v.Dump == "" {
			t.Fatalf("engine=%v: violation carries no machine-state dump", engine)
		}
	}
}

// TestAuditorCatchesSabotagedScheduler silently drops a pending steal
// request, stranding the waiting thief — a lost-thread bug in the
// migration protocol. The scheduler-conservation audit must catch it.
func TestAuditorCatchesSabotagedScheduler(t *testing.T) {
	dropped := false
	err := sabotageRun(t, EngineSequential, func(s *scheduler) {
		if dropped {
			return
		}
		for v, req := range s.reqs {
			if req != nil {
				s.reqs[v] = nil
				dropped = true
				return
			}
		}
	})
	if !dropped {
		t.Fatal("no steal request ever pending; sabotage never fired")
	}
	var v *invariant.Violation
	if !errors.As(err, &v) {
		t.Fatalf("dropped steal request not caught: %v", err)
	}
	if v.Rule != "sched-conservation" {
		t.Fatalf("wrong rule %q: %v", v.Rule, v)
	}
}
