package machine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/mem"
)

// White-box lockstep tests for the trace JIT (jit.go): a JIT'd run must be
// observationally identical to both the batched fast path and the
// per-instruction reference interpreter — same architectural state at every
// budget boundary, same trap state, same event stream — while provably
// executing compiled traces (the tests assert traces actually fired, so a
// JIT that silently never engages cannot pass them vacuously).

// jitProgram extends the fast-path mix with the remaining trace shapes: a
// tas spin-style lock probe (single-worker, so it always acquires), fused
// const+branch pairs, and a nested call — everything the compiler fuses or
// chains through.
func jitProgram(t *testing.T) *isa.Program {
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
		b.Const(isa.R0, mem.Guard)   // heap cell 0: accumulator
		b.Const(isa.R3, mem.Guard+1) // heap cell 1: lock word
		b.Const(isa.R1, 0)           // i
		b.Const(isa.R2, 150)         // iterations
		loop := b.NewLabel()
		b.Bind(loop)
		b.Tas(isa.T4, isa.R3, 0) // single worker: always acquires
		b.Const(isa.T5, 0)
		b.Bne(isa.T4, isa.T5, loop) // fused const+branch, never taken
		b.SetArg(0, isa.R0)
		b.SetArg(1, isa.R1)
		b.Call("mix")
		b.Store(isa.R3, 0, isa.T5) // release the lock
		b.AddI(isa.R1, isa.R1, 1)
		b.Poll()
		b.Blt(isa.R1, isa.R2, loop)
		b.Load(isa.RV, isa.R0, 0)
		b.Ret(isa.RV)
	})
}

// jitCompiledTraces asserts the worker really executed through the JIT.
func jitCompiledTraces(t *testing.T, w *Worker) {
	t.Helper()
	if compiled, _ := w.JITCounters(); compiled == 0 {
		t.Fatal("JIT never compiled a trace; the lockstep run proved nothing")
	}
}

// TestJITLockstepMatchesReference drives three machines — reference
// (NoFastPath), batched fast path, and JIT — through the same program in
// identical budget slices, with the poll signal raised periodically, and
// asserts full architectural equality at every slice boundary and full
// memory equality at halt.
func TestJITLockstepMatchesReference(t *testing.T) {
	progs := map[string]func(*testing.T) *isa.Program{
		"mix": mixProgram,
		"jit": jitProgram,
	}
	for name, mk := range progs {
		for _, budget := range []int64{1, 2, 97, 1000} {
			t.Run(fmt.Sprintf("%s/budget=%d", name, budget), func(t *testing.T) {
				prog := mk(t)
				ms, wsRef := startWorker(t, prog, Options{NoFastPath: true})
				_, wFast := startWorker(t, prog, Options{})
				mj, wJIT := startWorker(t, prog, Options{JIT: true})
				workers := []*Worker{wsRef, wFast, wJIT}

				for step := 0; ; step++ {
					if step > 2_000_000 {
						t.Fatal("runaway program")
					}
					signal := step%7 == 3
					for _, w := range workers {
						w.PollSignal = signal
					}
					evR, evF, evJ := wsRef.Run(budget), wFast.Run(budget), wJIT.Run(budget)
					if evR != evF || evR != evJ {
						t.Fatalf("step %d (budget %d): events diverged: ref=%v fast=%v jit=%v",
							step, budget, evR, evF, evJ)
					}
					diffWorker(t, "ref vs fast", wsRef, wFast)
					diffWorker(t, "ref vs jit", wsRef, wJIT)
					switch evR {
					case EvBudget:
						continue
					case EvPoll:
						for _, w := range workers {
							w.PollSignal = false
						}
						continue
					case EvHalt:
						wordsR, wordsJ := ms.Mem.ExportState().Words, mj.Mem.ExportState().Words
						for a := range wordsR {
							if wordsR[a] != wordsJ[a] {
								t.Fatalf("memory diverged at %d: ref=%d jit=%d", a, wordsR[a], wordsJ[a])
							}
						}
						if budget >= 97 {
							// Small budgets legitimately keep every trace
							// entry deoptimized; the larger slices must
							// actually exercise compiled traces.
							jitCompiledTraces(t, wJIT)
						}
						return
					default:
						t.Fatalf("step %d: unexpected event %v (err=%v)", step, evR, wJIT.Err)
					}
				}
			})
		}
	}
}

// TestJITTrapStateExact raises traps *inside already-hot JIT'd traces* — a
// division reaching zero, a fused store run walking below the guard page, a
// load leaving memory — and asserts the worker lands in exactly the
// reference interpreter's trap state (faulting pc named, its cost charged,
// its execution counted, identical error text).
func TestJITTrapStateExact(t *testing.T) {
	cases := []struct {
		name  string
		build func(u *asm.Unit)
	}{
		// R1 counts down from 60: the loop is long past the hotness
		// threshold when the divisor hits zero.
		{"div-reaches-zero", func(u *asm.Unit) {
			b := u.Proc("main", 0, 2)
			b.Const(isa.R0, 60)
			b.Const(isa.R1, 60)
			loop := b.NewLabel()
			b.Bind(loop)
			b.AddI(isa.R1, isa.R1, -1)
			b.Div(isa.T0, isa.R0, isa.R1)
			b.Add(isa.T1, isa.T1, isa.T0)
			b.Const(isa.T2, 0)
			b.Bne(isa.R1, isa.T2, loop)
			b.Ret(isa.T1)
		}},
		// The store address walks downward one word per iteration and
		// eventually crosses below mem.Guard inside a fused store run.
		{"store-run-walks-below-guard", func(u *asm.Unit) {
			b := u.Proc("main", 0, 2)
			b.Const(isa.R0, mem.Guard+50)
			b.Const(isa.R2, 7)
			loop := b.NewLabel()
			b.Bind(loop)
			b.Store(isa.R0, 0, isa.R2)
			b.Store(isa.R0, 1, isa.R2)
			b.Store(isa.R0, 2, isa.R2)
			b.AddI(isa.R0, isa.R0, -1)
			b.Jmp(loop)
		}},
		// The load address grows past the mapped words.
		{"load-leaves-memory", func(u *asm.Unit) {
			b := u.Proc("main", 0, 2)
			b.Const(isa.R0, mem.Guard)
			loop := b.NewLabel()
			b.Bind(loop)
			b.Load(isa.T0, isa.R0, 0)
			b.Load(isa.T1, isa.R0, 1)
			b.AddI(isa.R0, isa.R0, 16)
			b.Jmp(loop)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := compileUnit(t, tc.build)
			_, wRef := startWorker(t, prog, Options{NoFastPath: true})
			_, wJIT := startWorker(t, prog, Options{JIT: true})
			evR, evJ := wRef.Run(math.MaxInt64), wJIT.Run(math.MaxInt64)
			if evR != EvTrap || evJ != EvTrap {
				t.Fatalf("events: ref=%v jit=%v, want both EvTrap", evR, evJ)
			}
			diffWorker(t, "trap state", wRef, wJIT)
			if wRef.Err == nil || wJIT.Err == nil || wRef.Err.Error() != wJIT.Err.Error() {
				t.Fatalf("errors diverged:\n  ref: %v\n  jit: %v", wRef.Err, wJIT.Err)
			}
			jitCompiledTraces(t, wJIT)
		})
	}
}

// TestJITCanaryBuiltinCost pins the PR 9 canary builtins inside a hot JIT'd
// loop: the builtins deoptimize to the reference interpreter's dispatch, so
// all three paths must charge the identical builtin cost (4 cycles under
// SPARC) at the identical instruction — verified by exact cycle equality at
// every slice boundary.
func TestJITCanaryBuiltinCost(t *testing.T) {
	if got := isa.SPARC().BuiltinCost[isa.BCanary]; got != 4 {
		t.Fatalf("SPARC canary cost = %d, want 4", got)
	}
	if got := isa.SPARC().BuiltinCost[isa.BCanaryRetire]; got != 4 {
		t.Fatalf("SPARC canary_retire cost = %d, want 4", got)
	}
	prog := compileUnit(t, func(u *asm.Unit) {
		b := u.Proc("main", 0, 3)
		b.Const(isa.R0, mem.Guard+8) // canary word address
		b.Const(isa.R1, 0)           // i
		b.Const(isa.R2, 120)         // iterations
		loop := b.NewLabel()
		b.Bind(loop)
		b.Const(isa.T0, 0xC0DE)
		b.SetArg(0, isa.R0)
		b.SetArg(1, isa.T0)
		b.SetArg(2, isa.R1)
		b.Call("canary")
		b.Add(isa.T1, isa.T1, isa.R1)
		b.MulI(isa.T1, isa.T1, 3)
		b.SetArg(0, isa.R0)
		b.SetArg(1, isa.T0)
		b.Call("canary_retire")
		b.AddI(isa.R1, isa.R1, 1)
		b.Blt(isa.R1, isa.R2, loop)
		b.Ret(isa.T1)
	})
	_, wRef := startWorker(t, prog, Options{NoFastPath: true})
	_, wFast := startWorker(t, prog, Options{})
	_, wJIT := startWorker(t, prog, Options{JIT: true})
	for step := 0; ; step++ {
		if step > 1_000_000 {
			t.Fatal("runaway program")
		}
		evR, evF, evJ := wRef.Run(53), wFast.Run(53), wJIT.Run(53)
		if evR != evF || evR != evJ {
			t.Fatalf("step %d: events diverged: ref=%v fast=%v jit=%v", step, evR, evF, evJ)
		}
		diffWorker(t, "ref vs fast", wRef, wFast)
		diffWorker(t, "ref vs jit", wRef, wJIT)
		if evR == EvHalt {
			jitCompiledTraces(t, wJIT)
			return
		}
		if evR != EvBudget {
			t.Fatalf("step %d: unexpected event %v (err=%v)", step, evR, wJIT.Err)
		}
	}
}

// TestJITSentinelHeads pins the uncompilable-head behavior: a head whose
// first instruction is a builtin call gets a sentinel trace whose entry
// check never passes, so the pc permanently executes on the reference path
// instead of recompiling forever.
func TestJITSentinelHeads(t *testing.T) {
	prog := compileUnit(t, func(u *asm.Unit) {
		b := u.Proc("main", 0, 2)
		b.Const(isa.R1, 0)
		b.Const(isa.R2, 80)
		loop := b.NewLabel()
		b.Bind(loop)
		// The loop target's trace is fine, but "rand"'s return site head
		// begins mid-loop; the builtin call itself always deoptimizes.
		b.Call("rand")
		b.AddI(isa.R1, isa.R1, 1)
		b.Blt(isa.R1, isa.R2, loop)
		b.Ret(isa.R1)
	})
	_, wRef := startWorker(t, prog, Options{NoFastPath: true})
	_, wJIT := startWorker(t, prog, Options{JIT: true})
	evR, evJ := wRef.Run(math.MaxInt64), wJIT.Run(math.MaxInt64)
	if evR != EvHalt || evJ != EvHalt {
		t.Fatalf("events: ref=%v jit=%v (err=%v)", evR, evJ, wJIT.Err)
	}
	// rand is seeded identically, so even the random values agree.
	diffWorker(t, "at halt", wRef, wJIT)
}
