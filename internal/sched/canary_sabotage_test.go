package sched

import (
	"errors"
	"testing"

	"repro/internal/apps"
	"repro/internal/invariant"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
)

// Negative controls for the two security rules of the adversarial
// stack-safety harness. The program-level attacks live in
// internal/advprog; here the canary map itself is sabotaged from a pick
// boundary — a planted taint entry the program never stamped — and the
// audit of that same pick must abort the run with the right typed rule on
// every engine.

// canarySabotageRun drives fib with a canary map installed, the auditor at
// cadence 1 and the given sabotage hook, returning the run error.
func canarySabotageRun(t *testing.T, engine Engine, cm *machine.CanaryMap, hook func(s *scheduler)) error {
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
	m := machine.New(prog, mem.New(heap), isa.SPARC(), 4, machine.Options{Seed: 1, Canary: cm})
	testHookSabotage = hook
	defer func() { testHookSabotage = nil }()
	_, err = Run(m, w.Entry, w.Args, Config{
		Mode: ModeST, Seed: 1, Engine: engine, HostProcs: 4,
		Audit: invariant.New(1),
	})
	return err
}

func wantCanaryRule(t *testing.T, engine Engine, err error, rule string) {
	t.Helper()
	var v *invariant.Violation
	if !errors.As(err, &v) {
		t.Fatalf("engine=%v: sabotaged canary not caught: %v", engine, err)
	}
	if v.Rule != rule {
		t.Fatalf("engine=%v: wrong rule %q, want %q: %v", engine, v.Rule, rule, v)
	}
	if v.Dump == "" {
		t.Fatalf("engine=%v: violation carries no machine-state dump", engine)
	}
}

// TestAuditorCatchesClobberedCanary plants a live canary whose recorded
// value disagrees with memory — exactly the state left behind by a foreign
// write into retained frame state. The audit at the same pick must return
// a caller-integrity violation on every engine.
func TestAuditorCatchesClobberedCanary(t *testing.T) {
	for _, engine := range []Engine{EngineSequential, EngineThroughput} {
		cm := machine.NewCanaryMap()
		armed := false
		err := canarySabotageRun(t, engine, cm, func(s *scheduler) {
			if armed {
				return
			}
			w0 := s.m.Workers[0]
			// A mapped heap address: outside every stack segment, so only
			// the integrity value comparison is in play.
			addr := int64(mem.Guard)
			cm.RegisterRaw(machine.CanaryEntry{
				Addr: addr, Want: s.m.Mem.Load(addr) + 1, Owner: w0.ID, FP: w0.FP(),
			})
			armed = true
		})
		if !armed {
			t.Fatalf("engine=%v: sabotage hook never fired", engine)
		}
		wantCanaryRule(t, engine, err, "caller-integrity")
	}
}

// TestAuditorCatchesEscapedPrivateCanary plants a private canary at a heap
// address — an unpublished word that migrated out of its owner's stack
// segments. Its value matches memory, so only the confidentiality rule can
// fire; the audit must return frame-confidentiality on every engine.
func TestAuditorCatchesEscapedPrivateCanary(t *testing.T) {
	for _, engine := range []Engine{EngineSequential, EngineThroughput} {
		cm := machine.NewCanaryMap()
		armed := false
		err := canarySabotageRun(t, engine, cm, func(s *scheduler) {
			if armed {
				return
			}
			w0 := s.m.Workers[0]
			addr := int64(mem.Guard)
			cm.RegisterRaw(machine.CanaryEntry{
				Addr: addr, Want: s.m.Mem.Load(addr), Owner: w0.ID, FP: w0.FP(),
				Private: true,
			})
			armed = true
		})
		if !armed {
			t.Fatalf("engine=%v: sabotage hook never fired", engine)
		}
		wantCanaryRule(t, engine, err, "frame-confidentiality")
	}
}
