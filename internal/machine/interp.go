package machine

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/mem"
)

// runtimeError is a simulated-program fault raised inside the interpreter
// and recovered at the Run boundary.
type runtimeError struct {
	worker int
	pc     int64
	msg    string
}

func (e *runtimeError) Error() string {
	return fmt.Sprintf("worker %d: pc %d: %s", e.worker, e.pc, e.msg)
}

func (w *Worker) fail(pc int64, format string, args ...any) {
	panic(&runtimeError{worker: w.ID, pc: pc, msg: fmt.Sprintf(format, args...)})
}

// Run executes instructions until an event occurs or the cycle budget is
// exhausted. The budget is in virtual cycles; pass math.MaxInt64 to run to
// the next event.
//
// The loop is driven by the flat decode cache (decode.go): one entry per pc
// holding the resolved opcode cost, registers, procedure descriptor, call
// adjustments and straight-line run metadata. When tracing and observability
// are off, runs of straightline instructions execute as a batch (runBlock)
// with cycles charged in bulk and the budget checked only at run boundaries;
// the batch is entered only when the whole run fits under the deadline, so
// EvBudget fires at the identical instruction either way.
func (w *Worker) Run(budget int64) (ev Event) {
	deadline := w.Cycles + budget
	if budget > 0 && deadline < w.Cycles {
		deadline = math.MaxInt64 // saturate: a huge finite budget means "run to the next event"
	}
	defer func() {
		if r := recover(); r != nil {
			switch e := r.(type) {
			case *mem.Trap:
				w.Err = fmt.Errorf("worker %d: pc %d: %w", w.ID, w.PC, e)
			case *runtimeError:
				w.Err = e
			default:
				panic(r)
			}
			ev = EvTrap
		}
	}()

	dec := w.M.dec
	// The batched fast path executes with deferred state writes, so it
	// requires an execution environment with no per-instruction side
	// channels: no tracing and no observability. runBlock serves plain
	// execution (shared page table, inline store-hook calls) and
	// speculative segments (the chain's page view, with a write log) alike.
	// Everything the batch skips is observationally redundant, so turning
	// it off (NoFastPath) changes nothing but host speed.
	fast := !w.M.Opts.NoFastPath && w.M.Opts.Trace == nil && w.Obs == nil
	// The trace JIT additionally requires plain (non-speculative) memory:
	// speculative segments must log page-view writes, so they stay on the
	// path that already handles them. Not entering the JIT never changes
	// virtual state, so the gate is a pure host-speed decision.
	var jit *jitState
	var jitHeads []bool
	if fast && w.spec == nil && w.M.jitHeads != nil {
		if w.jit == nil {
			w.jit = newJITState(w.M)
		}
		jit = w.jit
		jitHeads = w.M.jitHeads
	}

	for {
		pc := w.PC
		// The common case is one predictable branch: pc >= 0 falls straight
		// through to the decode-cache dispatch. Halt/scheduler sentinels and
		// restart thunks take the cold path.
		if pc < 0 {
			ev, done := w.magicPC(pc)
			if done {
				return ev
			}
			continue
		}
		if w.Cycles >= deadline {
			return EvBudget
		}
		if pc >= int64(len(dec)) {
			w.fail(pc, "pc out of program")
		}

		if jit != nil && jitHeads[pc] {
			if t := jit.traces[pc]; t != nil {
				// Sentinel traces (steps == nil) mark uncompilable heads:
				// they fall through to the reference path forever, as does
				// any trace whose worst-case entry segment no longer fits
				// under the deadline (the quantum tail runs batched or
				// per-instruction, which find the exact EvBudget point).
				if t.steps != nil && w.Cycles+t.entryBound < deadline {
					ev, done := w.runJIT(t, deadline)
					if done {
						return ev
					}
					continue
				}
			} else if jit.hot.Bump(pc) {
				jit.traces[pc] = jit.compile(w.M, pc)
				continue
			}
		}

		d := &dec[pc]
		if fast && d.runLen > 1 && w.Cycles < deadline-int64(d.runCostButLast) {
			w.runBlock(pc, d)
			continue
		}

		if w.M.Opts.Trace != nil {
			fmt.Fprintf(w.M.Opts.Trace, "w%d %8d pc=%-5d sp=%-8d fp=%-8d rv=%-6d %v\n",
				w.ID, w.Cycles, pc, w.Regs[isa.SP], w.Regs[isa.FP], w.Regs[isa.RV], w.M.Prog.Code[pc])
		}
		w.Stats.Instrs++
		w.Cycles += int64(d.cost)
		if w.Obs != nil {
			w.obsTick(pc, d)
		}
		next := pc + 1

		switch d.op {
		case isa.Nop:
		case isa.Const:
			w.Regs[d.rd] = d.imm
		case isa.Mov:
			w.Regs[d.rd] = w.Regs[d.ra]
		case isa.Add:
			w.Regs[d.rd] = w.Regs[d.ra] + w.Regs[d.rb]
		case isa.Sub:
			w.Regs[d.rd] = w.Regs[d.ra] - w.Regs[d.rb]
		case isa.Mul:
			w.Regs[d.rd] = w.Regs[d.ra] * w.Regs[d.rb]
		case isa.Div:
			if w.Regs[d.rb] == 0 {
				w.fail(pc, "division by zero")
			}
			w.Regs[d.rd] = w.Regs[d.ra] / w.Regs[d.rb]
		case isa.Mod:
			if w.Regs[d.rb] == 0 {
				w.fail(pc, "modulo by zero")
			}
			w.Regs[d.rd] = w.Regs[d.ra] % w.Regs[d.rb]
		case isa.And:
			w.Regs[d.rd] = w.Regs[d.ra] & w.Regs[d.rb]
		case isa.Or:
			w.Regs[d.rd] = w.Regs[d.ra] | w.Regs[d.rb]
		case isa.Xor:
			w.Regs[d.rd] = w.Regs[d.ra] ^ w.Regs[d.rb]
		case isa.Shl:
			w.Regs[d.rd] = w.Regs[d.ra] << uint64(w.Regs[d.rb]&63)
		case isa.Shr:
			w.Regs[d.rd] = w.Regs[d.ra] >> uint64(w.Regs[d.rb]&63)
		case isa.AddI:
			w.Regs[d.rd] = w.Regs[d.ra] + d.imm
		case isa.MulI:
			w.Regs[d.rd] = w.Regs[d.ra] * d.imm
		case isa.Load:
			w.Regs[d.rd] = w.memLoad(w.Regs[d.ra] + d.imm)
		case isa.Store:
			w.memStore(w.Regs[d.ra]+d.imm, w.Regs[d.rb])
		case isa.Tas:
			// Atomic under the discrete-event scheduler: instructions are
			// indivisible across workers.
			a := w.Regs[d.ra] + d.imm
			w.Regs[d.rd] = w.memLoad(a)
			w.memStore(a, 1)
		case isa.Jmp:
			next = d.imm
		case isa.JmpReg:
			next = w.Regs[d.ra]
		case isa.Beq:
			if w.Regs[d.ra] == w.Regs[d.rb] {
				next = d.imm
			}
		case isa.Bne:
			if w.Regs[d.ra] != w.Regs[d.rb] {
				next = d.imm
			}
		case isa.Blt:
			if w.Regs[d.ra] < w.Regs[d.rb] {
				next = d.imm
			}
		case isa.Ble:
			if w.Regs[d.ra] <= w.Regs[d.rb] {
				next = d.imm
			}
		case isa.Bgt:
			if w.Regs[d.ra] > w.Regs[d.rb] {
				next = d.imm
			}
		case isa.Bge:
			if w.Regs[d.ra] >= w.Regs[d.rb] {
				next = d.imm
			}
		case isa.Call:
			w.Regs[isa.LR] = next
			if d.builtin != 0 {
				// The builtin sets w.PC itself (normally to LR; suspend and
				// restart transfer control elsewhere).
				ev, resume := w.builtin(isa.Builtin(d.builtin), pc)
				if !resume {
					return ev
				}
				continue
			}
			w.Stats.Calls++
			t := d.callDesc
			if t == nil {
				w.fail(pc, "call to invalid target %d", d.imm)
			}
			if w.Regs[isa.SP]-t.FrameSize-4 < w.Stack().Lo {
				w.fail(pc, "stack overflow calling %s", t.Name)
			}
			if depth := w.Stack().Hi - (w.Regs[isa.SP] - t.FrameSize); depth > w.Stats.StackHighWater {
				w.Stats.StackHighWater = depth
			}
			// The code-generation cost settings (Figures 17-20: register
			// windows, omitted frame pointers, Cilk spawn/check accounting)
			// collapse to one precomputed adjustment; see decode.go.
			w.Cycles += int64(d.callAdjust)
			next = d.imm
		case isa.Poll:
			if w.M.Opts.CilkCost {
				w.Cycles -= int64(d.cost) // Cilk code has no poll points
			} else if w.PollSignal {
				w.PC = next
				return EvPoll
			}
		case isa.FAdd:
			w.Regs[d.rd] = f2b(b2f(w.Regs[d.ra]) + b2f(w.Regs[d.rb]))
		case isa.FSub:
			w.Regs[d.rd] = f2b(b2f(w.Regs[d.ra]) - b2f(w.Regs[d.rb]))
		case isa.FMul:
			w.Regs[d.rd] = f2b(b2f(w.Regs[d.ra]) * b2f(w.Regs[d.rb]))
		case isa.FDiv:
			w.Regs[d.rd] = f2b(b2f(w.Regs[d.ra]) / b2f(w.Regs[d.rb]))
		case isa.FNeg:
			w.Regs[d.rd] = f2b(-b2f(w.Regs[d.ra]))
		case isa.FCmp:
			a, b := b2f(w.Regs[d.ra]), b2f(w.Regs[d.rb])
			switch {
			case a < b:
				w.Regs[d.rd] = -1
			case a > b:
				w.Regs[d.rd] = 1
			default:
				w.Regs[d.rd] = 0
			}
		case isa.ItoF:
			w.Regs[d.rd] = f2b(float64(w.Regs[d.ra]))
		case isa.FtoI:
			w.Regs[d.rd] = int64(b2f(w.Regs[d.ra]))
		default:
			w.fail(pc, "illegal opcode %v", d.op)
		}
		w.PC = next
	}
}

// magicPC handles a control transfer to a negative pc: the halt and
// scheduler sentinels end the run (done=true), and a restart thunk restores
// the callee-save registers saved at the restart call and redirects w.PC
// (Section 3.4). Kept out of Run so the hot loop's pc >= 0 case stays
// fall-through.
func (w *Worker) magicPC(pc int64) (Event, bool) {
	switch pc {
	case MagicHalt:
		return EvHalt, true
	case MagicSched:
		return EvBottom, true
	}
	t, ok := w.takeThunk(pc)
	if !ok {
		w.fail(pc, "jump to unknown magic pc")
	}
	// Control has returned to an invalid frame: restore the callee-save
	// registers saved at the restart call (Section 3.4).
	if w.Regs[isa.FP] != t.fp {
		w.fail(pc, "invalid-frame thunk FP mismatch: have %d, want %d", w.Regs[isa.FP], t.fp)
	}
	for i := 0; i < isa.NumCalleeSave; i++ {
		w.Regs[isa.R0+isa.Reg(i)] = t.regs[i]
	}
	w.PC = t.resumePC
	return 0, false
}

// runBlock executes the whole straight-line run of d0.runLen instructions
// starting at pc `start` as one batch: registers and memory update in place,
// but PC, cycles and the instruction count are written once at the end. The
// caller has already verified the entire run fits under the budget deadline
// and that the execution environment has no tracing or observability, and
// straightline instructions cannot branch or reach the runtime, so no
// per-instruction checks are needed. Memory is accessed exactly as
// memLoad/memStore would, inlined: through the worker's page table (shared,
// or a chain's private view) with a bounds check against its extent, so
// traps replicate the oracle's exactly. The only panics a block can raise
// are its own simulated faults, each preceded by blockSync, which
// synchronizes PC/cycles/instruction count to the exact state the
// per-instruction path would hold at the trap (the faulting instruction
// charged and counted, w.PC naming it) — required both for Run's trap
// formatting and for the engines' trap-state determinism.
func (w *Worker) runBlock(start int64, d0 *decoded) {
	dec := w.M.dec
	sp := w.spec
	pages, size := w.memTable()
	end := start + int64(d0.runLen)
	regs := &w.Regs
	for pc := start; pc < end; pc++ {
		d := &dec[pc]
		switch d.op {
		case isa.Nop:
		case isa.Const:
			regs[d.rd] = d.imm
		case isa.Mov:
			regs[d.rd] = regs[d.ra]
		case isa.Add:
			regs[d.rd] = regs[d.ra] + regs[d.rb]
		case isa.Sub:
			regs[d.rd] = regs[d.ra] - regs[d.rb]
		case isa.Mul:
			regs[d.rd] = regs[d.ra] * regs[d.rb]
		case isa.Div:
			if regs[d.rb] == 0 {
				w.blockSync(start, pc, d0)
				w.fail(pc, "division by zero")
			}
			regs[d.rd] = regs[d.ra] / regs[d.rb]
		case isa.Mod:
			if regs[d.rb] == 0 {
				w.blockSync(start, pc, d0)
				w.fail(pc, "modulo by zero")
			}
			regs[d.rd] = regs[d.ra] % regs[d.rb]
		case isa.And:
			regs[d.rd] = regs[d.ra] & regs[d.rb]
		case isa.Or:
			regs[d.rd] = regs[d.ra] | regs[d.rb]
		case isa.Xor:
			regs[d.rd] = regs[d.ra] ^ regs[d.rb]
		case isa.Shl:
			regs[d.rd] = regs[d.ra] << uint64(regs[d.rb]&63)
		case isa.Shr:
			regs[d.rd] = regs[d.ra] >> uint64(regs[d.rb]&63)
		case isa.AddI:
			regs[d.rd] = regs[d.ra] + d.imm
		case isa.MulI:
			regs[d.rd] = regs[d.ra] * d.imm
		case isa.Load:
			a := regs[d.ra] + d.imm
			if a < mem.Guard || a >= size {
				w.blockTrap(start, pc, d0, "load", a)
			}
			if pg := pages[a>>mem.PageShift]; pg != nil {
				regs[d.rd] = pg[a&mem.PageMask]
			} else {
				regs[d.rd] = w.loadMiss(a)
			}
		case isa.Store:
			a := regs[d.ra] + d.imm
			if a < mem.Guard || a >= size {
				w.blockTrap(start, pc, d0, "store", a)
			}
			pg := pages[a>>mem.PageShift]
			if pg == nil {
				pg = w.pageMiss(a)
			}
			v := regs[d.rb]
			if sp != nil {
				sp.wlog = append(sp.wlog, memWrite{a, v})
			} else if h := w.M.storeHook; h != nil {
				h(a)
			}
			pg[a&mem.PageMask] = v
		case isa.Tas:
			a := regs[d.ra] + d.imm
			if a < mem.Guard || a >= size {
				w.blockTrap(start, pc, d0, "load", a)
			}
			pg := pages[a>>mem.PageShift]
			if pg == nil {
				pg = w.pageMiss(a)
			}
			regs[d.rd] = pg[a&mem.PageMask]
			if sp != nil {
				sp.wlog = append(sp.wlog, memWrite{a, 1})
			} else if h := w.M.storeHook; h != nil {
				h(a)
			}
			pg[a&mem.PageMask] = 1
		case isa.FAdd:
			regs[d.rd] = f2b(b2f(regs[d.ra]) + b2f(regs[d.rb]))
		case isa.FSub:
			regs[d.rd] = f2b(b2f(regs[d.ra]) - b2f(regs[d.rb]))
		case isa.FMul:
			regs[d.rd] = f2b(b2f(regs[d.ra]) * b2f(regs[d.rb]))
		case isa.FDiv:
			regs[d.rd] = f2b(b2f(regs[d.ra]) / b2f(regs[d.rb]))
		case isa.FNeg:
			regs[d.rd] = f2b(-b2f(regs[d.ra]))
		case isa.FCmp:
			a, b := b2f(regs[d.ra]), b2f(regs[d.rb])
			switch {
			case a < b:
				regs[d.rd] = -1
			case a > b:
				regs[d.rd] = 1
			default:
				regs[d.rd] = 0
			}
		case isa.ItoF:
			regs[d.rd] = f2b(float64(regs[d.ra]))
		case isa.FtoI:
			regs[d.rd] = int64(b2f(regs[d.ra]))
		default:
			// Unreachable: only Straightline ops are batched.
			w.blockSync(start, pc, d0)
			w.fail(pc, "illegal opcode %v", d.op)
		}
	}
	w.Cycles += int64(d0.runCost)
	w.Stats.Instrs += int64(d0.runLen)
	w.PC = end
}

// blockSync synchronizes the worker's architectural state to the exact
// per-instruction state at pc inside the batch starting at start: the
// instructions before pc completed, pc's cost is charged and its execution
// counted, and w.PC names it. Within a run, runCost is a suffix sum, so the
// completed prefix costs d0.runCost - d.runCost. Called only on the cold
// trap paths.
func (w *Worker) blockSync(start, pc int64, d0 *decoded) {
	d := &w.M.dec[pc]
	w.PC = pc
	w.Cycles += int64(d0.runCost-d.runCost) + int64(d.cost)
	w.Stats.Instrs += (pc - start) + 1
}

// blockTrap raises the memory trap the per-instruction path's memLoad or
// memStore would raise at pc, with identical worker state.
func (w *Worker) blockTrap(start, pc int64, d0 *decoded, kind string, a int64) {
	w.blockSync(start, pc, d0)
	panic(&mem.Trap{Kind: kind, Addr: a})
}

func b2f(v int64) float64 { return math.Float64frombits(uint64(v)) }
func f2b(v float64) int64 { return int64(math.Float64bits(v)) }
