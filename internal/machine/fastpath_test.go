package machine

import (
	"math"
	"slices"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/postproc"
)

// White-box tests for the interpreter's batched fast path (decode.go,
// interp.go): the batch must be observationally identical to per-instruction
// execution — same cycle counts at every budget boundary, same trap state,
// and full coherence with the speculation substrate's capture/restore/abort.

func compileUnit(t *testing.T, build func(u *asm.Unit)) *isa.Program {
	t.Helper()
	u := asm.NewUnit()
	build(u)
	procs, err := u.Build()
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	prog, err := postproc.Compile(procs, postproc.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return prog
}

func startWorker(t *testing.T, prog *isa.Program, opts Options) (*Machine, *Worker) {
	t.Helper()
	if opts.StackWords == 0 {
		opts.StackWords = 1 << 10
	}
	m := New(prog, mem.New(1<<10), isa.SPARC(), 1, opts)
	entry, ok := prog.EntryOf["main"]
	if !ok {
		t.Fatal("no main entry")
	}
	w := m.Workers[0]
	w.StartCall(entry, nil)
	return m, w
}

func sameWorker(a, b *Worker) bool {
	return a.PC == b.PC && a.Cycles == b.Cycles && a.Regs == b.Regs && a.Stats == b.Stats
}

func diffWorker(t *testing.T, where string, a, b *Worker) {
	t.Helper()
	if !sameWorker(a, b) {
		t.Fatalf("%s: state diverged:\n  a: pc=%d cycles=%d stats=%+v\n  b: pc=%d cycles=%d stats=%+v\n  a regs=%v\n  b regs=%v",
			where, a.PC, a.Cycles, a.Stats, b.PC, b.Cycles, b.Stats, a.Regs, b.Regs)
	}
}

// mixProgram exercises every fast-path concern in one program: long
// straightline runs of ALU and memory traffic, calls (which end a run and
// carry a static cycle adjustment), polls, and branches, all mutating a
// shared heap cell.
func mixProgram(t *testing.T) *isa.Program {
	t.Helper()
	return compileUnit(t, func(u *asm.Unit) {
		h := u.Proc("mix", 2, 2)
		h.LoadArg(isa.T0, 0) // cell address
		h.LoadArg(isa.T1, 1) // i
		h.Load(isa.T2, isa.T0, 0)
		h.Add(isa.T2, isa.T2, isa.T1)
		h.MulI(isa.T3, isa.T2, 3)
		h.Xor(isa.T2, isa.T2, isa.T3)
		h.AddI(isa.T2, isa.T2, 17)
		h.Store(isa.T0, 0, isa.T2)
		h.Ret(isa.T2)

		b := u.Proc("main", 0, 2)
		b.Const(isa.R0, mem.Guard) // heap cell 0
		b.Const(isa.R1, 0)         // i
		b.Const(isa.R2, 123)       // iterations
		loop := b.NewLabel()
		b.Bind(loop)
		b.SetArg(0, isa.R0)
		b.SetArg(1, isa.R1)
		b.Call("mix")
		b.AddI(isa.R1, isa.R1, 1)
		b.Poll()
		b.Blt(isa.R1, isa.R2, loop)
		b.Load(isa.RV, isa.R0, 0)
		b.Ret(isa.RV)
	})
}

// TestFastPathMatchesSlowPath runs the same program on two machines — fast
// path on vs NoFastPath — sliced into deliberately odd 97-cycle budgets so
// EvBudget falls in the middle of straightline runs, and asserts the entire
// architectural state is identical at every slice boundary.
func TestFastPathMatchesSlowPath(t *testing.T) {
	prog := mixProgram(t)
	mf, wf := startWorker(t, prog, Options{})
	ms, ws := startWorker(t, prog, Options{NoFastPath: true})

	for step := 0; ; step++ {
		if step > 1_000_000 {
			t.Fatal("runaway program")
		}
		evF, evS := wf.Run(97), ws.Run(97)
		if evF != evS {
			t.Fatalf("step %d: events diverged: fast=%v slow=%v", step, evF, evS)
		}
		diffWorker(t, "slice boundary", wf, ws)
		switch evF {
		case EvBudget, EvPoll:
			continue
		case EvHalt:
			wordsF, wordsS := mf.Mem.ExportState().Words, ms.Mem.ExportState().Words
			if len(wordsF) != len(wordsS) {
				t.Fatalf("memory sizes diverged: %d vs %d", len(wordsF), len(wordsS))
			}
			for a := range wordsF {
				if wordsF[a] != wordsS[a] {
					t.Fatalf("memory diverged at %d: fast=%d slow=%d", a, wordsF[a], wordsS[a])
				}
			}
			if wf.Regs[isa.RV] == 0 {
				t.Fatal("program returned 0; the workload never ran")
			}
			return
		default:
			t.Fatalf("step %d: unexpected event %v (err=%v)", step, evF, wf.Err)
		}
	}
}

// TestFastPathTrapStateExact asserts that a trap raised inside a batched run
// leaves the worker in exactly the per-instruction state: the faulting pc,
// the cycle count including the faulting instruction's charge, and the
// instruction count including the faulting instruction.
func TestFastPathTrapStateExact(t *testing.T) {
	cases := []struct {
		name  string
		build func(u *asm.Unit)
	}{
		{"store-below-guard", func(u *asm.Unit) {
			b := u.Proc("main", 0, 2)
			b.Const(isa.T0, 3) // below mem.Guard
			b.AddI(isa.T1, isa.T1, 7)
			b.MulI(isa.T1, isa.T1, 9)
			b.Store(isa.T0, 0, isa.T1)
			b.Ret(isa.T1)
		}},
		{"load-out-of-range", func(u *asm.Unit) {
			b := u.Proc("main", 0, 2)
			b.Const(isa.T0, 1<<40)
			b.AddI(isa.T1, isa.T1, 1)
			b.Load(isa.T2, isa.T0, 0)
			b.Ret(isa.T2)
		}},
		{"div-by-zero", func(u *asm.Unit) {
			b := u.Proc("main", 0, 2)
			b.Const(isa.T0, 41)
			b.Const(isa.T1, 0)
			b.AddI(isa.T0, isa.T0, 1)
			b.Div(isa.T2, isa.T0, isa.T1)
			b.Ret(isa.T2)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := compileUnit(t, tc.build)
			_, wf := startWorker(t, prog, Options{})
			_, ws := startWorker(t, prog, Options{NoFastPath: true})
			evF, evS := wf.Run(math.MaxInt64), ws.Run(math.MaxInt64)
			if evF != EvTrap || evS != EvTrap {
				t.Fatalf("events: fast=%v slow=%v, want both EvTrap", evF, evS)
			}
			diffWorker(t, "trap state", wf, ws)
			if wf.Err == nil || ws.Err == nil || wf.Err.Error() != ws.Err.Error() {
				t.Fatalf("errors diverged:\n  fast: %v\n  slow: %v", wf.Err, ws.Err)
			}
		})
	}
}

// TestSpeculationFastPathCoherence drives the decode cache through the
// speculation substrate with a one-segment chain (which runs batched
// through runBlock in view mode): the chain must restore the exact pre-chain state,
// leak no store to shared memory, its commit must land the worker in the
// same state as a direct fast-path run, and a forbidden-operation abort
// must kill the chain and leave no trace.
func TestSpeculationFastPathCoherence(t *testing.T) {
	prog := compileUnit(t, func(u *asm.Unit) {
		b := u.Proc("main", 0, 2)
		b.Const(isa.R0, mem.Guard)
		b.Const(isa.R1, 0)
		b.Const(isa.R2, 400)
		loop := b.NewLabel()
		b.Bind(loop)
		b.Load(isa.T0, isa.R0, 0)
		b.Add(isa.T0, isa.T0, isa.R1)
		b.MulI(isa.T1, isa.T0, 5)
		b.Xor(isa.T0, isa.T0, isa.T1)
		b.Store(isa.R0, 0, isa.T0)
		b.AddI(isa.R1, isa.R1, 1)
		b.Blt(isa.R1, isa.R2, loop)
		b.Call("rand") // order-dependent: aborts any speculative segment
		b.Load(isa.RV, isa.R0, 0)
		b.Ret(isa.RV)
	})

	mDirect, wDirect := startWorker(t, prog, Options{})
	mSpec, wSpec := startWorker(t, prog, Options{})

	// 1. Finishing a successful segment restores the launch state exactly.
	pre := wSpec.capture()
	c := wSpec.BeginChain()
	if c == nil {
		t.Fatal("BeginChain refused an untraced worker")
	}
	seg := c.RunSegment(300)
	if seg == nil {
		t.Fatal("RunSegment(300) aborted; the quantum contains no forbidden op")
	}
	if seg.Ev != EvBudget {
		t.Fatalf("segment event %v, want EvBudget", seg.Ev)
	}
	c.Finish()
	if wSpec.PC != pre.pc || wSpec.Cycles != pre.cycles || wSpec.Regs != pre.regs || wSpec.Stats != pre.stats {
		t.Fatalf("Finish did not restore the launch state: pc=%d/%d cycles=%d/%d",
			wSpec.PC, pre.pc, wSpec.Cycles, pre.cycles)
	}
	if !seg.Matches(wSpec) {
		t.Fatal("segment does not match the restored launch state")
	}

	// 2. No speculative store reached shared memory.
	if got := mSpec.Mem.Load(mem.Guard); got != 0 {
		t.Fatalf("speculative stores leaked to shared memory: cell = %d", got)
	}

	// 3. Committing the segment matches a direct (batched) run of the same
	// budget, including the flushed write log.
	var pages []int64
	c.CommitSeg(seg, func(p int64) { pages = append(pages, p) })
	if ev := wDirect.Run(300); ev != EvBudget {
		t.Fatalf("direct run event %v, want EvBudget", ev)
	}
	diffWorker(t, "after commit", wSpec, wDirect)
	if a, b := mSpec.Mem.Load(mem.Guard), mDirect.Mem.Load(mem.Guard); a != b {
		t.Fatalf("heap cell diverged after commit: spec=%d direct=%d", a, b)
	}
	if want := int64(mem.Guard) >> mem.PageShift; !slices.Contains(pages, want) {
		t.Fatalf("commit reported pages %v, missing the heap cell's page %d", pages, want)
	}

	// 4. A segment that reaches the forbidden builtin aborts, kills the
	// chain and leaves the committed state untouched.
	c = wSpec.BeginChain()
	if seg := c.RunSegment(math.MaxInt64); seg != nil {
		t.Fatalf("RunSegment over the rand call returned %+v, want abort", seg)
	}
	diffWorker(t, "after abort", wSpec, wDirect)
	if seg := c.RunSegment(300); seg != nil {
		t.Fatal("a dead chain ran another segment")
	}
	c.Finish()
	diffWorker(t, "after finishing the aborted chain", wSpec, wDirect)

	// Both machines finish identically.
	evS, evD := wSpec.Run(math.MaxInt64), wDirect.Run(math.MaxInt64)
	if evS != EvHalt || evD != EvHalt {
		t.Fatalf("final events: spec=%v direct=%v (errs %v / %v)", evS, evD, wSpec.Err, wDirect.Err)
	}
	diffWorker(t, "at halt", wSpec, wDirect)
	if wSpec.Regs[isa.RV] != wDirect.Regs[isa.RV] {
		t.Fatalf("return values diverged: %d vs %d", wSpec.Regs[isa.RV], wDirect.Regs[isa.RV])
	}
}

// TestFastPathDegenerateBudgets pins Run's behavior at the budget edges
// where the batch-entry comparison (deadline - runCostButLast) is most
// likely to be off by one: a zero budget must return EvBudget with no
// progress at all, a one-cycle budget must advance exactly like the
// reference path, and a budget that lands the deadline exactly on a
// straightline-run boundary must fire EvBudget on the identical
// instruction with or without batching.
func TestFastPathDegenerateBudgets(t *testing.T) {
	finish := func(t *testing.T, mf, ms *Machine, wf, ws *Worker, run func(step int) int64) {
		t.Helper()
		for step := 0; ; step++ {
			if step > 1_000_000 {
				t.Fatal("runaway program")
			}
			b := run(step)
			evF, evS := wf.Run(b), ws.Run(b)
			if evF != evS {
				t.Fatalf("step %d (budget %d): events diverged: fast=%v slow=%v", step, b, evF, evS)
			}
			diffWorker(t, "slice boundary", wf, ws)
			switch evF {
			case EvBudget, EvPoll:
				continue
			case EvHalt:
				wordsF, wordsS := mf.Mem.ExportState().Words, ms.Mem.ExportState().Words
				for a := range wordsF {
					if wordsF[a] != wordsS[a] {
						t.Fatalf("memory diverged at %d: fast=%d slow=%d", a, wordsF[a], wordsS[a])
					}
				}
				return
			default:
				t.Fatalf("step %d: unexpected event %v (err=%v)", step, evF, wf.Err)
			}
		}
	}

	t.Run("zero", func(t *testing.T) {
		prog := mixProgram(t)
		_, wf := startWorker(t, prog, Options{})
		_, ws := startWorker(t, prog, Options{NoFastPath: true})
		for i := 0; i < 3; i++ {
			pc, cycles, instrs := wf.PC, wf.Cycles, wf.Stats.Instrs
			evF, evS := wf.Run(0), ws.Run(0)
			if evF != EvBudget || evS != EvBudget {
				t.Fatalf("Run(0): events fast=%v slow=%v, want EvBudget", evF, evS)
			}
			if wf.PC != pc || wf.Cycles != cycles || wf.Stats.Instrs != instrs {
				t.Fatalf("Run(0) made progress: pc %d→%d cycles %d→%d", pc, wf.PC, cycles, wf.Cycles)
			}
			diffWorker(t, "after zero budget", wf, ws)
		}
	})

	t.Run("one", func(t *testing.T) {
		prog := mixProgram(t)
		mf, wf := startWorker(t, prog, Options{})
		ms, ws := startWorker(t, prog, Options{NoFastPath: true})
		finish(t, mf, ms, wf, ws, func(int) int64 { return 1 })
	})

	t.Run("batch-boundary", func(t *testing.T) {
		// At every slice, choose the budget from the *current* run's exact
		// suffix cost so the deadline lands exactly at the run boundary,
		// one cycle short of it, or one cycle past it in rotation.
		prog := mixProgram(t)
		mf, wf := startWorker(t, prog, Options{})
		ms, ws := startWorker(t, prog, Options{NoFastPath: true})
		finish(t, mf, ms, wf, ws, func(step int) int64 {
			b := int64(1)
			if pc := wf.PC; pc >= 0 && pc < int64(len(mf.dec)) && mf.dec[pc].runLen > 0 {
				b = int64(mf.dec[pc].runCost) + int64(step%3-1)
			}
			if b <= 0 {
				b = 1
			}
			return b
		})
	})
}
