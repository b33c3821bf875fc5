package machine

import (
	"repro/internal/mem"
)

// This file implements chained speculation over page-granular private
// memory views — the machine half of the throughput engine
// (sched/engine_throughput.go, which also holds the correctness argument).
// A chain runs many consecutive quanta ("segments") of one virtual worker
// ahead of its scheduler picks, against a private copy-on-first-touch view
// of shared memory:
//
//   - The view is a private page table over mem.Page. A page privatizes
//     (copied, or zeroed when absent) on the first load or store that
//     touches it; later accesses hit the copy at array speed, which keeps
//     the batched fast path (runBlock) available during speculation — the
//     property the engine's host speedup depends on.
//
//   - Every store is additionally appended to the segment's write log. At
//     the segment's oracle pick the engine flushes exactly those writes to
//     shared memory, so the shared state evolves word for word as the
//     sequential engine's would.
//
//   - Pages double as the conflict-detection granule: the engine indexes
//     which chains privatized which pages and kills a chain the moment any
//     other writer touches one of its pages. Since both loads and stores
//     privatize, the touched pages cover every address a segment depends
//     on.
//
// A chain runs on the live Worker struct: segments execute back to back
// without restoring between them, and Finish returns the worker to its
// launch state. The engine only runs chains while the coordinator is
// blocked (the launch phase is bulk-synchronous), so shared memory, the
// thunk map and the observability collector are read-only for the entire
// time any chain executes, which makes the phase race-free by
// construction.

// memWrite is one logged speculative store.
type memWrite struct {
	a, v int64
}

// pageView is a chain's private view of shared memory: a page table whose
// pages are copied from the shared table on first touch.
type pageView struct {
	// size is the shared-memory size frozen at chain launch; bounds checks
	// test against it so traps replicate the oracle's exactly. A chain is
	// invalid once shared memory grows past it.
	size int64
	// src is the shared page table at launch. It is only read during the
	// bulk-synchronous launch phase, when no shared store or remap can
	// happen, so reading it from host goroutines is race-free.
	src []*mem.Page
	// pages maps page number to the private copy (nil = untouched).
	pages []*mem.Page
	// touched lists privatized page numbers in first-touch order; the
	// engine uses it to index the chain for conflict detection and to
	// undo that indexing when the chain dies.
	touched []int64
	// free holds private pages of an earlier chain, reused by privatize.
	free []*mem.Page
}

// privatize copies page p from shared memory into the view.
func (v *pageView) privatize(p int64) *mem.Page {
	var pg *mem.Page
	if n := len(v.free); n > 0 {
		pg, v.free = v.free[n-1], v.free[:n-1]
	} else {
		pg = new(mem.Page)
	}
	if s := v.src[p]; s != nil {
		*pg = *s
	} else {
		*pg = mem.Page{}
	}
	v.pages[p] = pg
	v.touched = append(v.touched, p)
	return pg
}

// ChainSeg is one speculated quantum of a chain, held by the throughput
// engine until the worker's oracle pick adopts or discards it.
type ChainSeg struct {
	// Ev is the event Run returned at the end of the quantum.
	Ev Event

	startCycles int64
	startPoll   bool
	post        *workerSnap
	st          *specState
}

// Matches reports whether w still holds the state this segment launched
// from: its clock and poll signal are untouched since the previous segment
// committed (the scheduler advances a running worker in no other way).
func (s *ChainSeg) Matches(w *Worker) bool {
	return w.Cycles == s.startCycles && w.PollSignal == s.startPoll
}

// ConsumedThunks returns the restart-thunk pcs this segment consumed.
func (s *ChainSeg) ConsumedThunks() []int64 { return s.st.thunks }

// ChainRun is one chained speculation in progress: a pipeline of segments
// speculated ahead of one virtual worker's oracle picks.
type ChainRun struct {
	w    *Worker
	pre  *workerSnap
	size int64 // shared-memory size frozen at launch
	// view is the private view from the first segment (attach) to Finish,
	// which keeps its touched page list.
	view    *pageView
	touched []int64
	// consumed accumulates thunk pcs consumed by earlier segments so later
	// segments observe their consumption (the shared map is untouched
	// until the segments commit).
	consumed []int64
	// open reports the live worker currently holds in-chain state (the
	// last segment's post state) rather than its launch state.
	open bool
	// dead is set once a segment aborted; no further segments may run.
	dead bool
}

// BeginChain starts a chained speculation from w's current state. It
// returns nil when chaining is impossible (instruction tracing must follow
// the oracle's order). The caller must bracket the chain with Finish before
// the scheduler looks at the worker again.
func (w *Worker) BeginChain() *ChainRun {
	if w.M.Opts.Trace != nil {
		return nil
	}
	return &ChainRun{w: w, pre: w.capture(), size: w.M.Mem.Size()}
}

// ViewSize returns the shared-memory size the chain's view was frozen at.
func (c *ChainRun) ViewSize() int64 { return c.size }

// TouchedPages returns the page numbers the chain privatized (reads and
// writes both privatize, so this is a superset of every address the
// chain's segments depend on). Valid after Finish.
func (c *ChainRun) TouchedPages() []int64 { return c.touched }

// attach gives the chain its private view v, an emptied view from the
// machine's pool: a fresh table per chain, one pointer per page of the
// address space, would drive the GC. Pooled views number one per host
// goroutine, however many workers chain.
func (c *ChainRun) attach(v *pageView) {
	if np := mem.PageCount(c.size); len(v.pages) < np {
		v.pages = make([]*mem.Page, np)
	}
	v.size, v.src = c.size, c.w.M.Mem.Pages()
	c.view = v
}

// RunSegment speculates the next quantum of the chain on the live worker
// and returns it, or nil when the quantum aborted (an order-dependent
// global operation, a foreign panic, or fault injection); after an abort
// the worker is back at its launch state and the chain is dead. Aborting
// never invalidates segments returned earlier — they commit or discard at
// their own oracle picks.
func (c *ChainRun) RunSegment(budget int64) (seg *ChainSeg) {
	if c.dead {
		return nil
	}
	w := c.w
	if c.view == nil {
		c.attach(w.M.views.Get().(*pageView))
	}
	st := &specState{view: c.view, prevThunks: c.consumed}
	w.spec = st
	startCycles, startPoll := w.Cycles, w.PollSignal
	defer func() {
		w.spec = nil
		if recover() != nil {
			// The abort sentinel and any other panic both kill the chain;
			// the worker returns to its launch state. If the panic reflects
			// a real fault the oracle can reach, the direct rerun at the
			// pick reproduces it deterministically.
			w.restore(c.pre)
			c.open = false
			c.dead = true
			seg = nil
		}
	}()
	ev := w.Run(budget)
	post := w.capture()
	c.consumed = append(c.consumed, st.thunks...)
	c.open = true
	return &ChainSeg{Ev: ev, startCycles: startCycles, startPoll: startPoll, post: post, st: st}
}

// Finish returns the live worker to the chain's launch state (a no-op when
// a segment abort already did). Must be called exactly once, after the last
// RunSegment and before the scheduler's replay looks at the worker.
// It empties the view into the machine's pool (segments log their writes).
func (c *ChainRun) Finish() {
	if c.open {
		c.w.restore(c.pre)
		c.open = false
	}
	c.dead = true
	if v := c.view; v != nil {
		for _, p := range v.touched {
			v.free = append(v.free, v.pages[p])
			v.pages[p] = nil
		}
		c.touched, c.view = v.touched, nil
		v.touched, v.src = nil, nil
		c.w.M.views.Put(v)
	}
}

// CommitSeg adopts segment seg at the worker's oracle pick: install the
// post-quantum state, flush the segment's write log to shared memory (in
// program order, bypassing the store hook — the engine handles conflict
// indexing itself via onPage), consume the logged thunks, and replay
// buffered observability emissions. onPage, when non-nil, is called with
// the page number of each flushed write; consecutive duplicates are
// suppressed, other duplicates may occur.
func (c *ChainRun) CommitSeg(seg *ChainSeg, onPage func(page int64)) {
	w := c.w
	w.restore(seg.post)
	if len(seg.st.wlog) > 0 {
		pages := w.M.Mem.Pages()
		last := int64(-1)
		for _, wr := range seg.st.wlog {
			storeWord(w.M.Mem, pages, wr.a, wr.v)
			if p := wr.a >> mem.PageShift; onPage != nil && p != last {
				last = p
				onPage(p)
			}
		}
	}
	for _, pc := range seg.st.thunks {
		delete(w.M.thunks, pc)
	}
	if col := w.M.Opts.Obs; col != nil {
		for _, e := range seg.st.events {
			if e.span {
				col.Span(e.start, e.end, w.ID, e.name, e.args...)
			} else {
				col.Instant(e.start, w.ID, e.name, e.args...)
			}
		}
		for _, v := range seg.st.expObs {
			col.ExportedSize.Observe(v)
		}
		for _, sm := range seg.st.samples {
			w.Obs.AddSample(sm.weight, sm.pcs)
		}
	}
}
