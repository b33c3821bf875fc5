package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/machine"
	"repro/internal/mem"
)

// This file is the throughput engine, the repo's one speculative engine. It
// is result-deterministic — byte-identical Result, metrics, events and
// output to the sequential oracle for every configuration and seed — yet
// extracts real host speedup by speculating *chains* of quanta per virtual
// worker and distributing them over per-host-core work-stealing deques.
//
// Launch phase (bulk-synchronous, coordinator blocked). Every running
// worker without a live chain starts one (machine.Worker.BeginChain): a
// pipeline of up to maxChainSegs consecutive quanta executed on the live
// Worker struct against a page-granular private view of shared memory
// (machine/specview.go). The chains are dealt round-robin onto
// per-host-worker deques; each host worker runs chains from its own deque
// top and steals from other deques' bottoms when it drains — LTC's
// steal-the-oldest, lifted onto host threads (§4.2). During the phase the
// coordinator blocks and no shared state is written: speculative stores go
// to private pages plus a write log, thunk consumption and observability
// emissions are buffered, and every worker is restored to its launch state
// before the phase ends. The phase is therefore read-only and race-free by
// construction.
//
// Replay phase (coordinator only). The coordinator runs the exact
// sequential pick loop — next() always selects the least-advanced
// actionable worker, ties broken by the lowest index. At a running
// worker's pick, its chain's next segment is adopted iff it provably
// equals the quantum the oracle would run right now:
//
//  1. no conflict: no address in any page the chain touched has been
//     stored to since launch, except by the chain's own earlier commits.
//     The engine keeps a page → chain-slot bitmask index; the machine's
//     store hook marks the page of every non-speculative store (including
//     the coordinator's own barrier-time writes), and commit flushes mark
//     their pages against every *other* chain. Loads privatize pages too,
//     so the touched pages cover every address the segment read;
//  2. the worker still holds the state the segment started from (clock and
//     poll signal — the scheduler advances a running worker in no other
//     way), which also chains segment k to segment k-1's committed state;
//  3. shared memory has not been remapped since launch (size unchanged);
//  4. every restart thunk the segment consumed is still registered.
//
// Under these conditions the segment read exactly the values the oracle's
// quantum would read (1, 3), started from the identical architectural state
// (2) and found the same thunks (4). Its execution is a deterministic
// function of those inputs, and order-dependent operations (heap
// allocation, shared PRNG, thunk numbering, output) abort chain
// construction at execution time, so they only ever run directly in oracle
// order. An adopted segment commits (post-state installed, write log
// flushed in program order, thunks consumed, buffered observability
// replayed in program order), which leaves shared and worker state exactly
// as the direct quantum would. Otherwise the whole remaining chain is
// discarded — segment k failing means k+1 can no longer match — and the
// quantum reruns directly, exactly as the sequential engine would run it.
// Chains extend only past EvBudget boundaries: any other event hands
// control to scheduler code whose effects (and cycle charges) are
// coordinator-side, so speculating past one cannot match.
//
// By induction over picks: both engines start from the same state, and
// every pick either reruns the quantum directly or commits a segment proven
// equal to that rerun, so after every pick the machines agree and the
// engine's sequence of state transitions — and therefore Result, metrics,
// and event log — is byte-identical to the sequential engine's. The
// sequential engine stays on as the differential oracle
// (TestEngineDifferential).
//
// One regime needs extra care: Cilk steals are thief-driven, so an idle
// step can mutate a *running* victim (readyq pop or a direct stack detach)
// without touching its clock. A later commit or restore of that victim's
// segments would resurrect the stolen work, so a successful Cilk steal
// discards every outstanding chain. ST-mode steals only post a request and
// raise the victim's poll signal, which check 2 catches.
//
// The speedup model: a chain is many quanta long, executes through the
// interpreter's batched fast path (runBlock), and its adoptions cost
// only a state swap plus a write-log flush — so between launches the
// coordinator mostly adopts instead of executing, and the host cores do
// the real work in parallel.

// testHookChainStats, when set (white-box tests only), receives the
// throughput engine's segment outcome counts when its loop returns.
var testHookChainStats func(commits, reruns int64)

const (
	// maxChainSegs bounds how many quanta one chain speculates ahead of its
	// worker's picks. Deeper chains amortize launch barriers better but
	// risk larger discards when a conflict lands mid-chain.
	maxChainSegs = 32
	// maxChains bounds concurrently live chains: conflict slots index the
	// bits of a uint64 mask. Running workers beyond the limit simply
	// execute directly at their picks.
	maxChains = 64
)

// tchain is one live chained speculation: the machine-level chain, its
// speculated segments, and the conflict-slot bookkeeping.
type tchain struct {
	wi   int // virtual worker index
	c    *machine.ChainRun
	segs []*machine.ChainSeg
	next int  // first un-adopted segment
	slot uint // conflict bitmask bit
}

func (s *scheduler) loopThroughput() error {
	procs := s.cfg.HostProcs
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	var commits, reruns int64
	if testHookChainStats != nil {
		defer func() { testHookChainStats(commits, reruns) }()
	}
	cont := s.cfg.Contention
	// With one host slot there is nothing to overlap; with instruction
	// tracing on, BeginChain refuses anyway (trace order must match the
	// oracle). Fall back to pure direct execution.
	serialOnly := procs < 2 || s.m.Opts.Trace != nil
	if serialOnly && cont != nil {
		cont.SerialFallbacks.Add(1)
	}
	defer s.m.SetStoreHook(nil)

	n := len(s.m.Workers)
	chains := make([]*tchain, n) // live chain per virtual worker
	pending := 0                 // un-adopted segments across all chains
	// readers indexes the conflict state: for each shared-memory page, the
	// bitmask of chain slots that privatized it. deadMask accumulates
	// chains invalidated by a store into one of their pages.
	var readers []uint64
	var deadMask uint64
	freeSlots := make([]uint, 0, maxChains)
	for b := maxChains - 1; b >= 0; b-- {
		freeSlots = append(freeSlots, uint(b))
	}
	// The store hook records the replay phase's writes at page granularity,
	// killing every chain that touched the page. hookLast dedups the common
	// run of consecutive stores to one page; it resets whenever readers
	// gains bits (a launch), so no marking is ever skipped.
	hookLast := int64(-1)
	hook := func(a int64) {
		p := a >> mem.PageShift
		if p == hookLast {
			return
		}
		hookLast = p
		if p < int64(len(readers)) {
			deadMask |= readers[p]
		}
	}

	// retire dissolves a chain's conflict-index footprint and frees its
	// slot; the remaining un-adopted segments (zero when the chain was
	// fully adopted) are counted as discards.
	retire := func(c *tchain) {
		if rem := len(c.segs) - c.next; rem > 0 {
			pending -= rem
			if cont != nil {
				cont.ChainDiscards.Add(int64(rem))
			}
		}
		for _, p := range c.c.TouchedPages() {
			readers[p] &^= 1 << c.slot
		}
		deadMask &^= 1 << c.slot
		freeSlots = append(freeSlots, c.slot)
		chains[c.wi] = nil
	}

	discardAll := func() {
		for _, c := range chains {
			if c != nil {
				retire(c)
			}
		}
		s.m.SetStoreHook(nil)
	}

	// runChain speculates one chain to its end: segments extend past
	// EvBudget boundaries only, up to maxChainSegs, and Finish restores the
	// worker's launch state. Called on host workers during the launch
	// phase.
	runChain := func(c *tchain) {
		for len(c.segs) < maxChainSegs {
			seg := c.c.RunSegment(s.cfg.Quantum)
			if seg == nil {
				break
			}
			c.segs = append(c.segs, seg)
			if seg.Ev != machine.EvBudget {
				break
			}
		}
		c.c.Finish()
	}

	// launch runs one bulk-synchronous launch phase: start a chain for
	// every running worker without one, deal them onto per-host-worker
	// deques, and run them to completion across the host pool. No-op
	// unless at least two workers can chain (a single chain would just
	// serialize through the barrier).
	cand := make([]int, 0, n)
	launch := func() {
		if serialOnly {
			return
		}
		cand = cand[:0]
		for i := range s.status {
			if s.status[i] == running && chains[i] == nil && len(cand) < len(freeSlots) {
				cand = append(cand, i)
			}
		}
		if len(cand) < 2 {
			return
		}
		if np := mem.PageCount(s.m.Mem.Size()); np > len(readers) {
			readers = append(readers, make([]uint64, np-len(readers))...)
		}
		epoch := make([]*tchain, 0, len(cand))
		for _, i := range cand {
			cr := s.m.Workers[i].BeginChain()
			if cr == nil {
				continue
			}
			slot := freeSlots[len(freeSlots)-1]
			freeSlots = freeSlots[:len(freeSlots)-1]
			c := &tchain{wi: i, c: cr, slot: slot}
			chains[i] = c
			epoch = append(epoch, c)
		}

		hosts := min(procs, len(epoch))
		deqs := make([]hostDeque[*tchain], hosts)
		for k, c := range epoch {
			deqs[k%hosts].PushTop(c)
		}
		// unclaimed counts chains still sitting in a deque. A chain is
		// never re-enqueued once taken, so a host worker whose own deque
		// is empty can retire the moment unclaimed hits zero: whatever
		// remains is already being run by its holder.
		var unclaimed atomic.Int64
		unclaimed.Store(int64(len(epoch)))
		var wg sync.WaitGroup
		for g := 0; g < hosts; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := uint64(g)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03 | 1
				for unclaimed.Load() > 0 {
					if c, ok := deqs[g].PopTop(); ok {
						unclaimed.Add(-1)
						runChain(c)
						continue
					}
					// Own deque drained: steal the oldest chain from
					// another host worker's bottom (LTC order).
					if cont != nil {
						cont.HostStealAttempts.Add(1)
					}
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					stole := false
					start := int(rng % uint64(hosts))
					for k := 0; k < hosts; k++ {
						v := (start + k) % hosts
						if v == g {
							continue
						}
						if c, ok := deqs[v].PopBottom(); ok {
							unclaimed.Add(-1)
							if cont != nil {
								cont.HostSteals.Add(1)
							}
							runChain(c)
							stole = true
							break
						}
					}
					if !stole {
						runtime.Gosched()
					}
				}
			}(g)
		}
		wg.Wait()

		launched, segsTotal := 0, 0
		for _, c := range epoch {
			if len(c.segs) == 0 {
				// Aborted before producing a single segment; nothing to
				// index or adopt.
				freeSlots = append(freeSlots, c.slot)
				chains[c.wi] = nil
				continue
			}
			launched++
			segsTotal += len(c.segs)
			pending += len(c.segs)
			for _, p := range c.c.TouchedPages() {
				readers[p] |= 1 << c.slot
			}
		}
		if launched > 0 {
			if cont != nil {
				cont.ChainEpochs.Add(1)
				cont.ChainsLaunched.Add(int64(launched))
				cont.ChainSegments.Add(int64(segsTotal))
			}
			hookLast = -1
			s.m.SetStoreHook(hook)
		}
	}

	valid := func(c *tchain, seg *machine.ChainSeg, w *machine.Worker) bool {
		if s.cfg.Fault.ForceSpecAbort() {
			// Injected fault, host-transparent by construction: an invalid
			// segment just reruns non-speculatively. The site has its own
			// stream, so consulting it here never shifts the virtual-fault
			// draws.
			return false
		}
		if deadMask&(1<<c.slot) != 0 {
			return false
		}
		if !seg.Matches(w) {
			return false
		}
		if s.m.Mem.Size() != c.c.ViewSize() {
			return false
		}
		for _, pc := range seg.ConsumedThunks() {
			if !s.m.HasThunk(pc) {
				return false
			}
		}
		return true
	}

	for {
		i := s.next()
		if i < 0 {
			return fmt.Errorf("sched: deadlock: no runnable worker (all waiting)")
		}
		w := s.m.Workers[i]
		if err := s.checkAbort(w); err != nil {
			return err
		}

		if s.status[i] == idle {
			steals0 := s.res.Steals
			s.stepIdle(i)
			if s.cfg.Mode == ModeCilk && s.res.Steals != steals0 && pending > 0 {
				// A thief-driven steal mutated a running victim without
				// touching its clock; no outstanding chain can be trusted
				// to restore over it (see the file comment).
				discardAll()
			}
			if done, err := s.quiescent(); done {
				return err
			}
			continue
		}

		if s.injectVirtual(i) {
			// The stall moved the worker's clock, so its next segment will
			// fail Matches and the chain reruns — the fault lands
			// identically on every engine.
			continue
		}
		if chains[i] == nil {
			launch()
		}

		var ev machine.Event
		if c := chains[i]; c != nil && c.next < len(c.segs) {
			seg := c.segs[c.next]
			if valid(c, seg, w) {
				c.next++
				pending--
				c.c.CommitSeg(seg, func(p int64) {
					// The flush is a real write: it kills every *other*
					// chain that touched the page. The chain's own later
					// segments already build on these writes.
					deadMask |= readers[p] &^ (1 << c.slot)
				})
				ev = seg.Ev
				commits++
				if cont != nil {
					cont.ChainCommits.Add(1)
				}
				if c.next >= len(c.segs) {
					retire(c)
				}
			} else {
				retire(c)
				ev = w.Run(s.cfg.Quantum)
				reruns++
				if cont != nil {
					cont.ChainReruns.Add(1)
				}
			}
		} else {
			ev = w.Run(s.cfg.Quantum)
			reruns++
			if cont != nil && !serialOnly {
				cont.ChainReruns.Add(1)
			}
		}
		done, err := s.handleEvent(i, ev)
		if pending == 0 {
			// Every chain has drained (checked after handleEvent, so
			// barrier-time writes were still recorded for any remaining
			// validations). Stop recording until the next launch.
			s.m.SetStoreHook(nil)
		}
		if done {
			return err
		}
	}
}
