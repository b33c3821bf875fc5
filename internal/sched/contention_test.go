package sched

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/obs"
)

// TestContentionCountersTrackSpeculation runs the throughput engine with a
// Contention sink attached and cross-checks its counts against the white-
// box chain hook: the host-side diagnostics must agree with what the
// engine actually did, and must not perturb the result.
func TestContentionCountersTrackSpeculation(t *testing.T) {
	w := apps.Fib(18, apps.ST)
	prog, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	run := func(cont *Contention, prog2 *obs.Progress) *Result {
		m := machine.New(prog, mem.New(1<<20), isa.SPARC(), 4, machine.Options{Seed: 1})
		res, err := Run(m, w.Entry, w.Args, Config{
			Mode: ModeST, Seed: 1, Engine: EngineThroughput, HostProcs: 4,
			Contention: cont, Progress: prog2,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	var hookCommits, hookReruns int64
	testHookChainStats = func(c, r int64) { hookCommits, hookReruns = c, r }
	defer func() { testHookChainStats = nil }()

	cont := &Contention{}
	progress := &obs.Progress{}
	res := run(cont, progress)
	snap := cont.Snapshot()

	if snap.ChainCommits != hookCommits || snap.ChainReruns != hookReruns {
		t.Errorf("contention (commits=%d reruns=%d) disagrees with hook (commits=%d reruns=%d)",
			snap.ChainCommits, snap.ChainReruns, hookCommits, hookReruns)
	}
	if snap.ChainEpochs == 0 || snap.ChainSegments < snap.ChainCommits {
		t.Errorf("implausible epoch accounting: %+v", snap)
	}
	if progress.Picks.Load() == 0 {
		t.Error("progress saw no picks")
	}
	if got := progress.WorkCycles.Load(); got <= 0 || got > res.WorkCycles {
		t.Errorf("final progress work = %d, want in (0, %d]", got, res.WorkCycles)
	}

	// Attaching the sinks must not change the run's bytes.
	bare := run(nil, nil)
	if bare.RV != res.RV || bare.Time != res.Time || bare.WorkCycles != res.WorkCycles ||
		bare.Steals != res.Steals || bare.Attempts != res.Attempts {
		t.Errorf("result drift with sinks attached:\n  with: %+v\n  bare: %+v", res, bare)
	}
}

// TestContentionNilIsDisabled proves the nil-sink path stays alive.
func TestContentionNilIsDisabled(t *testing.T) {
	var c *Contention
	if s := c.Snapshot(); s != (ContentionSnapshot{}) {
		t.Fatalf("nil snapshot = %+v, want zero", s)
	}
}

// TestContentionCountersTrackJIT: a JIT-enabled run with a Contention sink
// attached reports the traces its workers compiled — and attaching the sink
// (or the JIT itself) never changes the run's bytes.
func TestContentionCountersTrackJIT(t *testing.T) {
	w := apps.Fib(14, apps.ST)
	prog, err := w.Compile()
	if err != nil {
		t.Fatal(err)
	}
	run := func(jit bool, cont *Contention) *Result {
		m := machine.New(prog, mem.New(1<<20), isa.SPARC(), 2, machine.Options{Seed: 1, JIT: jit})
		res, err := Run(m, w.Entry, w.Args, Config{
			Mode: ModeST, Seed: 1, Contention: cont,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	cont := &Contention{}
	res := run(true, cont)
	snap := cont.Snapshot()
	if snap.JITCompiled == 0 {
		t.Error("JIT-enabled fib(14) compiled no traces")
	}

	plain := &Contention{}
	bare := run(false, plain)
	if s := plain.Snapshot(); s.JITCompiled != 0 || s.JITDeopts != 0 {
		t.Errorf("JIT-disabled run reported JIT activity: %+v", s)
	}
	if bare.RV != res.RV || bare.Time != res.Time || bare.WorkCycles != res.WorkCycles || bare.Picks != res.Picks {
		t.Errorf("JIT changed the run's bytes: jit=%+v plain=%+v", res, bare)
	}
}
