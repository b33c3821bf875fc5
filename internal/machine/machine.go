// Package machine implements the simulated processor and the
// StackThreads/MP runtime core: the calling-standard interpreter, the
// suspend/restart primitives of Section 3.4, the stack management of
// Section 5 (exported set, retained frames, argument-region extension,
// shrink), and the invalid-frame register save/restore of restart.
//
// A Machine holds the linked program, the shared memory and the cost model;
// Workers are the OS-thread analogues of the paper — each owns a physical
// stack (a region of the shared memory), a logical stack (the chain of
// frames reachable from its FP register), an exported set, and a ready
// queue. The multiprocessor scheduler in package sched drives several
// workers in virtual time; sequential experiments drive a single worker
// directly.
package machine

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/exportset"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/postproc"
)

// Magic program counters. Control transfers to negative addresses are
// runtime events: the halt and scheduler sentinels terminate a logical
// stack, and dynamically allocated thunk pcs implement the invalid-frame
// register restore of restart (Section 3.4).
const (
	// MagicHalt ends the program: the bottom frame of the main thread
	// returns here.
	MagicHalt int64 = -1
	// MagicSched ends a thread segment started by StartThread: the worker
	// returns to its scheduler loop.
	MagicSched int64 = -2
	// magicThunkBase and below are restart thunks.
	magicThunkBase int64 = -1024
)

// ContextWords is the size in words of a thread context in simulated
// memory (struct context in the paper's API): resume pc, top frame, bottom
// frame, and the callee-save register snapshot.
const ContextWords = 3 + isa.NumCalleeSave

// Context is the host-side representation of a suspended computation: the
// chain of frames c1..cn detached by suspend, with everything needed to
// continue it (Figure 6/7).
type Context struct {
	// ResumePC is the instruction at which execution continues (just after
	// the call to suspend that detached the chain).
	ResumePC int64
	// Top is the frame pointer of c1, the chain's top frame.
	Top int64
	// Bottom is the frame pointer of cn, the frame whose return-address and
	// parent-FP slots restart patches.
	Bottom int64
	// Regs snapshots the callee-save registers at suspension.
	Regs [isa.NumCalleeSave]int64
}

// Options configures a Machine beyond program, memory and cost model.
type Options struct {
	// StackWords is the physical stack size per worker (per segment when
	// SegmentedStacks is set).
	StackWords int64
	// SegmentedStacks enables the "safer scheme" sketched in Section 5.1:
	// a worker manages multiple physical stacks. Whenever its logical stack
	// empties while detached frames still pin the current segment, it
	// continues on a fresh (or recycled) segment; a non-current segment is
	// reclaimed as soon as its last retained frame finishes. Frames in
	// non-current segments always fail the epilogue's segment-local free
	// check, so they retire and are swept by shrink — no generated code
	// changes are needed.
	SegmentedStacks bool
	// CheckInvariants enables the Section 3.2 invariant checker after
	// every suspend, restart, shrink and thread start (slow; tests only).
	CheckInvariants bool
	// RegWindows, OmitFP and LockedLib select the code-generation cost
	// settings of the Figures 17-20 experiments; see isa.CostModel.
	RegWindows bool
	OmitFP     bool
	LockedLib  bool
	// UnsafeNoRestartExport disables the first Section 5.3 rule — restart
	// exporting the current frame when it lies above the chain bottom.
	// Failure-injection tests use it to show the rule is load-bearing.
	UnsafeNoRestartExport bool
	// CilkCost switches the cost accounting to the Cilk-5 baseline model:
	// every fork call pays the explicit-frame spawn cost, blocking sync
	// pays the sync cost, and the StackThreads-specific costs (epilogue
	// free checks, poll points) are refunded, since Cilk-generated code
	// contains neither. Scheduling policy changes (thief-driven steals)
	// live in package sched.
	CilkCost bool
	// Out receives output from the print builtins; nil discards it.
	Out io.Writer
	// Trace, when non-nil, receives one line per executed instruction
	// (debugging only).
	Trace io.Writer
	// Seed initializes the deterministic PRNG behind the rand builtin.
	Seed uint64
	// Obs, when non-nil, attaches the observability layer: cycle-phase
	// attribution, the sampling profiler and the trace event stream. Nil
	// costs nothing — collection never charges virtual cycles either way.
	// Observed runs keep straight-line batching (a batch stops short of the
	// profiler's next sample); only the trace JIT is off while observing.
	Obs *obs.Collector
	// NoFastPath makes the interpreter execute straightline code one
	// instruction at a time, through the same definition (runBlock) the
	// batches use, and disables the trace JIT. Tests use it as the
	// reference that proves batching and the JIT observationally identical;
	// nothing in the production paths (core, sched, stserve) ever sets it.
	NoFastPath bool
	// JIT enables the trace JIT (jit.go): hot program points compile into
	// superblock traces of fused superinstruction steps, deoptimizing to
	// the reference interpreter on traps, budget boundaries, builtins and
	// speculation. Strictly a host-speed knob — results are byte-identical
	// with it on or off (proven by the lockstep tests and the equivalence
	// matrix).
	JIT bool
	// Canary, when non-nil, arms the adversarial stack-safety harness: the
	// canary/canary_retire builtins register per-frame canary words here and
	// the invariant auditor enforces the caller-integrity and
	// frame-confidentiality rules against the map (see canary.go). Nil keeps
	// both builtins cheap no-op stores.
	Canary *CanaryMap
}

// DefaultStackWords is the per-worker physical stack size when
// Options.StackWords is zero.
const DefaultStackWords = 1 << 20

// Machine is one simulated shared-memory multiprocessor run: program,
// memory, cost model and workers.
type Machine struct {
	Prog *isa.Program
	Mem  *mem.Memory
	Cost *isa.CostModel
	Opts Options

	Workers []*Worker

	// descAt maps every pc to its procedure descriptor (O(1) version of
	// Program.DescFor, built once).
	descAt []*isa.Desc
	// isForkPC marks the Call instructions that are fork points.
	isForkPC []bool
	// isCheckPC marks the instructions that exist only because of epilogue
	// augmentation (the free check and the retain path's frame-finished
	// marking); the observability layer attributes their cost separately.
	isCheckPC []bool
	// augRefund is the dynamic cost of the epilogue free check, refunded
	// per call in Cilk cost mode.
	augRefund int64
	// dec is the flat per-pc decode cache driving the interpreter: resolved
	// descriptors, costs, call adjustments and straight-line run metadata
	// (see decode.go). Immutable after New.
	dec []decoded
	// jitHeads marks the pcs where JIT traces may start (nil when the JIT
	// is off). Immutable after New; workers hold the mutable JIT state.
	jitHeads []bool

	thunks    map[int64]*thunk
	nextThunk int64
	rng       uint64

	// storeHook, when non-nil, observes the address of every
	// non-speculative shared-memory store (see SetStoreHook in spec.go).
	storeHook func(a int64)
	// views pools the emptied *pageView of finished chains (specview.go).
	views sync.Pool
}

// thunk is the side record behind a patched return address: when control
// returns to (or is unwound through) an invalid frame — one that called
// restart — the thunk restores the callee-save registers saved at the
// restart point and redirects to the real resume pc.
type thunk struct {
	// resumePC is where the invalid frame really continues.
	resumePC int64
	// callsite is the pc of the call that logically created the patched
	// frame's chain (the restart call site); fork-point tests during
	// unwinding use it.
	callsite int64
	// isFork forces the boundary to count as a fork point regardless of
	// callsite (used when the runtime performs ASYNC_CALL(restart(...))
	// during migration, Figure 10).
	isFork bool
	// fp is the invalid frame's FP, for consistency checking.
	fp   int64
	regs [isa.NumCalleeSave]int64
}

// New creates a machine with nWorkers workers, each with its own physical
// stack region and worker-local storage.
func New(prog *isa.Program, memory *mem.Memory, cost *isa.CostModel, nWorkers int, opts Options) *Machine {
	if opts.StackWords == 0 {
		opts.StackWords = DefaultStackWords
	}
	if opts.Out == nil {
		opts.Out = io.Discard
	}
	m := &Machine{
		Prog:      prog,
		Mem:       memory,
		Cost:      cost,
		Opts:      opts,
		thunks:    make(map[int64]*thunk),
		nextThunk: magicThunkBase,
		rng:       opts.Seed*2862933555777941757 + 3037000493,
	}
	m.views.New = func() any { return &pageView{} }
	m.descAt = make([]*isa.Desc, len(prog.Code))
	m.isForkPC = make([]bool, len(prog.Code))
	m.isCheckPC = make([]bool, len(prog.Code))
	for _, d := range prog.Descs {
		for pc := d.Entry; pc < d.End; pc++ {
			m.descAt[pc] = d
		}
		for _, f := range d.ForkPoints {
			m.isForkPC[f] = true
		}
		if d.Augmented && d.CheckEntry > 0 {
			// The augmented tail's extra instructions over the original
			// epilogue: the three-instruction free check, plus the retain
			// path's finished-marking Const/Store (augmentedTail layout).
			for _, off := range []int64{0, 1, 2, 8, 9} {
				if pc := d.CheckEntry + off; pc < d.End {
					m.isCheckPC[pc] = true
				}
			}
		}
	}
	if opts.Obs != nil {
		opts.Obs.Attach(prog)
	}
	m.augRefund = cost.OpCost[isa.Load] + cost.OpCost[isa.Bge] + cost.OpCost[isa.Blt]
	m.buildDecode()
	if opts.JIT && !opts.NoFastPath {
		m.jitHeads = m.buildJITHeads()
	}
	for i := 0; i < nWorkers; i++ {
		w := newWorker(m, i)
		m.Workers = append(m.Workers, w)
	}
	return m
}

// descFor returns the descriptor containing pc (nil for magic pcs).
func (m *Machine) descFor(pc int64) *isa.Desc {
	if pc < 0 || pc >= int64(len(m.descAt)) {
		return nil
	}
	return m.descAt[pc]
}

// newThunkPC registers t and returns its magic pc.
func (m *Machine) newThunkPC(t *thunk) int64 {
	m.nextThunk--
	pc := m.nextThunk
	m.thunks[pc] = t
	return pc
}

// takeThunk consumes the thunk behind pc.
func (m *Machine) takeThunk(pc int64) (*thunk, bool) {
	t, ok := m.thunks[pc]
	if ok {
		delete(m.thunks, pc)
	}
	return t, ok
}

// nextRand steps the deterministic xorshift generator.
func (m *Machine) nextRand() uint64 {
	x := m.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	m.rng = x
	return x
}

// Event is the reason a worker's Run loop stopped.
type Event int

// Run-loop events.
const (
	// EvBudget: the cycle budget was exhausted mid-execution.
	EvBudget Event = iota
	// EvHalt: the program's main thread returned to MagicHalt.
	EvHalt
	// EvBottom: the worker's logical stack emptied (a thread segment
	// returned to MagicSched); the scheduler decides what runs next.
	EvBottom
	// EvPoll: a poll point fired with the worker's poll signal raised.
	EvPoll
	// EvBlocked: a lock builtin found its word held; the call will retry.
	EvBlocked
	// EvTrap: the simulated program faulted; Worker.Err holds the cause.
	EvTrap
)

func (e Event) String() string {
	switch e {
	case EvBudget:
		return "budget"
	case EvHalt:
		return "halt"
	case EvBottom:
		return "bottom"
	case EvPoll:
		return "poll"
	case EvBlocked:
		return "blocked"
	case EvTrap:
		return "trap"
	}
	return fmt.Sprintf("event(%d)", int(e))
}

// Stats counts a worker's activity in virtual cycles and runtime events.
type Stats struct {
	Instrs   int64
	Calls    int64
	Suspends int64
	Restarts int64
	Exports  int64
	Shrinks  int64
	Extends  int64
	// StackHighWater is the deepest SP observed in any one segment, as
	// words below that segment's bottom.
	StackHighWater int64
	// Segments counts the physical stack segments ever mapped (1 unless
	// SegmentedStacks is on); SegmentsLive is the current non-reclaimed
	// count.
	Segments     int64
	SegmentsLive int64
}

// StackSegment is one physical stack region together with the exported set
// of frames retained in it. The epilogue's free check is segment-local, so
// each segment carries its own "max E"; only the current segment's value is
// published to the worker-local cell.
type StackSegment struct {
	Region   mem.Region
	Exported exportset.Set
}

// Worker is one OS-thread analogue: registers, one or more physical stack
// segments, worker-local storage, and a ready queue of suspended thread
// contexts (the LTC readyq of Section 4.2).
type Worker struct {
	ID int
	M  *Machine

	Regs   [isa.NumRegs]int64
	PC     int64
	Cycles int64
	Err    error
	Stats  Stats

	// Segs holds the worker's stack segments; cur indexes the one SP lives
	// in, and free lists reclaimed segments available for reuse.
	Segs []*StackSegment
	cur  int
	free []int

	WL mem.Region

	ReadyQ Deque

	// PollSignal is raised by the scheduler when a steal request is
	// pending; the next poll point returns EvPoll.
	PollSignal bool

	// Obs is this worker's cycle-attribution state; nil when observability
	// is off (the interpreter's only obligation then is one nil check).
	Obs *obs.WorkerObs
	// obsStack is the reusable buffer for profiler stack walks.
	obsStack []int64

	// spec, when non-nil, redirects this worker's shared-state accesses
	// into a speculative segment's private view (see spec.go).
	spec *specState

	// jit is this worker's trace-JIT state (hotness counts + compiled
	// traces), created lazily on the first eligible Run; nil when the JIT
	// is off. Host-side only: never captured, snapshotted or speculated.
	jit *jitState
}

func newWorker(m *Machine, id int) *Worker {
	w := &Worker{ID: id, M: m}
	if m.Opts.Obs != nil {
		w.Obs = m.Opts.Obs.Worker(id)
	}
	w.Segs = []*StackSegment{{Region: m.Mem.MapStack(m.Opts.StackWords)}}
	w.Stats.Segments = 1
	w.Stats.SegmentsLive = 1
	w.WL = m.Mem.MapWords(8)
	w.Regs[isa.WL] = w.WL.Lo
	w.Regs[isa.FP] = 0
	w.Regs[isa.SP] = w.bottomSP()
	w.updateMaxECell()
	return w
}

// seg returns the current stack segment.
func (w *Worker) seg() *StackSegment { return w.Segs[w.cur] }

// Stack returns the current physical stack region.
func (w *Worker) Stack() mem.Region { return w.seg().Region }

// Exported returns the current segment's exported set (the one governing
// SP), for tests and tooling.
func (w *Worker) Exported() *exportset.Set { return &w.seg().Exported }

// segmentOf returns the segment containing address a, or nil.
func (w *Worker) segmentOf(a int64) *StackSegment {
	for _, s := range w.Segs {
		if s.Region.Contains(a) {
			return s
		}
	}
	return nil
}

// bottomSP is the stack pointer of an empty logical stack: just enough
// space below the stack bottom for the largest arguments region.
func (w *Worker) bottomSP() int64 {
	return w.Stack().Hi - w.M.Prog.MaxArgsOut - 2
}

// maxESentinel is the value of the worker-local max-E cell when the
// current segment's exported set is empty: the segment's own bottom, which
// makes the epilogue's "FP strictly above the topmost exported frame"
// comparison double as an exact segment-locality test (Section 5.2).
func (w *Worker) maxESentinel() int64 { return w.Stack().Hi }

// updateMaxECell publishes the current segment's topmost exported frame to
// the worker-local cell read by augmented epilogues.
func (w *Worker) updateMaxECell() {
	w.memStore(w.WL.Lo+postproc.WLSlotMaxE, w.seg().Exported.TopFP(w.maxESentinel()))
}

// Local reports whether address a lies in any of this worker's stack
// segments.
func (w *Worker) Local(a int64) bool { return w.segmentOf(a) != nil }

// switchSegmentIfPinned implements the Section 5.1 multi-stack policy: with
// an empty logical stack, if retained frames still pin the current segment,
// continue on a reclaimed or fresh one.
func (w *Worker) switchSegmentIfPinned() {
	if !w.M.Opts.SegmentedStacks || w.seg().Exported.Empty() {
		return
	}
	if n := len(w.free); n > 0 {
		w.cur = w.free[n-1]
		w.free = w.free[:n-1]
	} else {
		w.Segs = append(w.Segs, &StackSegment{Region: w.M.Mem.MapStack(w.M.Opts.StackWords)})
		w.cur = len(w.Segs) - 1
		w.Stats.Segments++
	}
	w.Stats.SegmentsLive++
	w.Regs[isa.SP] = w.bottomSP()
	w.updateMaxECell()
	if w.Obs != nil {
		w.M.Opts.Obs.Instant(w.Cycles, w.ID, "segment-switch",
			obs.Arg{K: "live", V: w.Stats.SegmentsLive})
	}
}

// sweepSegments pops finished frames from non-current segments and reclaims
// the ones that empty out (their space becomes reusable). Part of shrink.
func (w *Worker) sweepSegments() {
	if !w.M.Opts.SegmentedStacks {
		return
	}
	for i, s := range w.Segs {
		if i == w.cur {
			continue
		}
		changed := false
		for !s.Exported.Empty() && w.memLoad(s.Exported.Top().FP-1) == 0 {
			s.Exported.PopTop()
			w.Stats.Shrinks++
			changed = true
		}
		if changed && s.Exported.Empty() && !w.isFree(i) {
			w.free = append(w.free, i)
			w.Stats.SegmentsLive--
		}
	}
}

func (w *Worker) isFree(i int) bool {
	for _, f := range w.free {
		if f == i {
			return true
		}
	}
	return false
}

// SP and FP accessors.
func (w *Worker) SP() int64 { return w.Regs[isa.SP] }

// FP returns the frame pointer (the logical stack top).
func (w *Worker) FP() int64 { return w.Regs[isa.FP] }

// Deque is the doubly-ended ready queue of Lazy Task Creation (Figure 11):
// resumed threads enter the tail, the scheduler pops the head, and thieves
// take from the tail. Popped slots are nilled out and the head offset is
// compacted as it grows, so a popped Context is collectable as soon as the
// runtime drops its own reference — a long run must not pin every context
// that ever passed through the queue.
type Deque struct {
	items []*Context
	head  int
}

// dequeCompactMin is the head offset below which PopHead never compacts;
// past it, compaction triggers once the live window is at most half the
// backing array.
const dequeCompactMin = 32

// Len returns the number of queued contexts.
func (d *Deque) Len() int { return len(d.items) - d.head }

// Empty reports whether the deque is empty.
func (d *Deque) Empty() bool { return d.head == len(d.items) }

// PushTail enqueues c at the tail.
func (d *Deque) PushTail(c *Context) { d.items = append(d.items, c) }

// PopHead removes and returns the head context; nil when empty.
func (d *Deque) PopHead() *Context {
	if d.head == len(d.items) {
		return nil
	}
	c := d.items[d.head]
	d.items[d.head] = nil
	d.head++
	if d.head == len(d.items) {
		d.items = d.items[:0]
		d.head = 0
	} else if d.head >= dequeCompactMin && d.head*2 >= len(d.items) {
		n := copy(d.items, d.items[d.head:])
		clear(d.items[n:])
		d.items = d.items[:n]
		d.head = 0
	}
	return c
}

// PopTail removes and returns the tail context; nil when empty.
func (d *Deque) PopTail() *Context {
	if d.head == len(d.items) {
		return nil
	}
	c := d.items[len(d.items)-1]
	d.items[len(d.items)-1] = nil
	d.items = d.items[:len(d.items)-1]
	if d.head == len(d.items) {
		d.items = d.items[:0]
		d.head = 0
	}
	return c
}

// At returns the i-th context from the head without removing it (the
// invariant auditor walks queued contexts read-only).
func (d *Deque) At(i int) *Context { return d.items[d.head+i] }

// snapshot returns the queued contexts head-to-tail in a fresh slice
// (speculation capture).
func (d *Deque) snapshot() []*Context {
	s := make([]*Context, d.Len())
	copy(s, d.items[d.head:])
	return s
}

// restoreFrom resets the deque to hold exactly cs, head-to-tail, consuming
// the slice (speculation restore).
func (d *Deque) restoreFrom(cs []*Context) {
	d.items = cs
	d.head = 0
}
