package machine

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
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
// adjustments and straight-line run metadata. Straightline instructions are
// defined once, in runBlock; Run's switch holds only the control ops. A whole
// straight-line run executes as one batch when it fits under the deadline
// (so EvBudget fires at the identical instruction either way) and ends before
// the profiler's next sample; otherwise, or when tracing or NoFastPath is
// on, runBlock executes one instruction at a time.
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
	// Batching defers per-instruction state writes, so tracing turns it
	// off. runBlock serves plain execution, speculative segments (the
	// chain's page view, with a write log) and observed runs alike, and
	// everything a batch skips is observationally redundant, so turning it
	// off (NoFastPath) changes nothing but host speed.
	fast := !w.M.Opts.NoFastPath && w.M.Opts.Trace == nil
	o := w.Obs
	// The trace JIT additionally requires plain (non-speculative) memory
	// and no observation: traces log no page-view writes, attribute no
	// phases and take no samples. Not entering the JIT never changes
	// virtual state, so the gate is a pure host-speed decision.
	var jit *jitState
	var jitHeads []bool
	if fast && w.spec == nil && o == nil && w.M.jitHeads != nil {
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
		if fast && d.runLen > 0 && w.Cycles < deadline-int64(d.runCostButLast) &&
			(o == nil || w.Cycles+int64(d.runCost) < o.NextSample) {
			w.runBlock(pc, d, d.runLen)
			continue
		}

		if w.M.Opts.Trace != nil {
			fmt.Fprintf(w.M.Opts.Trace, "w%d %8d pc=%-5d sp=%-8d fp=%-8d rv=%-6d %v\n",
				w.ID, w.Cycles, pc, w.Regs[isa.SP], w.Regs[isa.FP], w.Regs[isa.RV], w.M.Prog.Code[pc])
		}
		if d.runLen > 0 {
			// Like obsTick, sample at the post-charge clock, before executing.
			if o != nil && w.Cycles+int64(d.cost) >= o.NextSample {
				w.obsSample(pc, w.Cycles+int64(d.cost))
			}
			w.runBlock(pc, d, 1)
			continue
		}
		w.Stats.Instrs++
		w.Cycles += int64(d.cost)
		if o != nil {
			w.obsTick(pc, d)
		}
		next := pc + 1

		switch d.op {
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

// runBlock is the one definition of the straightline instructions. It
// executes the first n instructions (1 <= n <= d0.runLen) of the
// straight-line run starting at pc `start` as one batch: registers and
// memory update in place, but PC, cycles, the instruction count and the
// run's epilogue-check attribution are written once at the end.
// The caller has already verified that the n instructions fit under the
// budget deadline and, when observed, that no profiler sample falls inside
// them; straightline instructions cannot branch or reach the runtime, so no
// per-instruction checks are needed. Memory is accessed exactly as
// memLoad/memStore would, inlined: through the worker's page table (shared,
// or a chain's private view) with a bounds check against its extent, so
// traps replicate memLoad/memStore exactly. The only panics a block can
// raise are its own simulated faults, each preceded by blockSync, which
// synchronizes the worker to the exact state at the trap (the faulting
// instruction charged and counted, w.PC naming it) — required both for
// Run's trap formatting and for the engines' trap-state determinism.
func (w *Worker) runBlock(start int64, d0 *decoded, n int32) {
	dec := w.M.dec
	sp := w.spec
	pages, size := w.memTable()
	end := start + int64(n)
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
			// Atomic under the discrete-event scheduler: instructions are
			// indivisible across workers.
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
	if n == d0.runLen && w.Obs == nil {
		// The common case: a whole, unobserved run has no prefix to
		// subtract and no checks to attribute.
		w.Cycles += int64(d0.runCost)
		w.Stats.Instrs += int64(n)
	} else {
		w.blockSync(start, end-1, d0)
	}
	w.PC = end
}

// blockSync synchronizes the worker to the exact per-instruction state at pc
// inside the batch starting at start: the instructions through pc are
// charged (cycles, count and, when observed, epilogue checks) and w.PC names
// pc. Within a run the decode cache holds suffix sums, so the prefix through
// pc costs d0's sum minus the sum at pc+1 (nothing past the run's end).
func (w *Worker) blockSync(start, pc int64, d0 *decoded) {
	cost, check := d0.runCost, d0.runCheck
	if pc-start+1 < int64(d0.runLen) {
		e := &w.M.dec[pc+1]
		cost -= e.runCost
		check -= e.runCheck
	}
	w.PC = pc
	w.Cycles += int64(cost)
	w.Stats.Instrs += pc - start + 1
	if check != 0 && w.Obs != nil {
		w.Obs.Charge(obs.PhaseEpilogue, int64(check))
	}
}

// blockTrap raises the memory trap memLoad or memStore would raise at pc,
// with the worker synchronized to pc.
func (w *Worker) blockTrap(start, pc int64, d0 *decoded, kind string, a int64) {
	w.blockSync(start, pc, d0)
	panic(&mem.Trap{Kind: kind, Addr: a})
}

func b2f(v int64) float64 { return math.Float64frombits(uint64(v)) }
func f2b(v float64) int64 { return int64(math.Float64bits(v)) }
