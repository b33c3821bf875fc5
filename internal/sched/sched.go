// Package sched is the shared-memory multiprocessor runtime: it drives a
// machine's workers in deterministic virtual time (a discrete-event
// simulation standing in for the paper's 64-CPU Enterprise 10000) and
// implements the two scheduling regimes of the evaluation:
//
//   - StackThreads/MP (Section 4): idle workers post steal requests through
//     per-worker request ports; victims notice them at poll points and run
//     the migration protocol of Figures 9/10/12 — suspend the threads above
//     the bottom one, detach the bottom thread, hand it to the requester,
//     and restart the rest. Lazy Task Creation order: readyq tail first,
//     then the logical stack bottom.
//
//   - Cilk (the comparison baseline): thieves take the oldest outstanding
//     fork continuation directly (THE protocol analogue), with Cilk's cost
//     model (per-spawn explicit frame maintenance pre-paid; no poll points,
//     no epilogue checks).
//
// Workers advance on private virtual clocks; the scheduler always runs the
// least-advanced runnable worker, so every run with the same seed is
// reproducible regardless of host parallelism.
package sched

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/obs"
)

// ErrCycleBudget is the sentinel matched by errors.Is against work-cycle
// budget aborts: a run that exceeds Config.MaxWorkCycles fails with a
// *CycleBudgetError wrapping it.
var ErrCycleBudget = errors.New("work-cycle budget exceeded")

// CycleBudgetError reports a run that exceeded its virtual work-cycle
// budget (Config.MaxWorkCycles). It unwraps to ErrCycleBudget.
type CycleBudgetError struct {
	// Budget is the configured limit; Used is the total work across all
	// workers at the abort check. The check runs at pick boundaries, so
	// Used overshoots Budget by at most one quantum per worker — and by
	// the same amount on every engine, keeping the error deterministic.
	Budget, Used int64
}

func (e *CycleBudgetError) Error() string {
	return fmt.Sprintf("sched: %v: used %d of %d cycles", ErrCycleBudget, e.Used, e.Budget)
}

// Unwrap makes errors.Is(err, ErrCycleBudget) hold.
func (e *CycleBudgetError) Unwrap() error { return ErrCycleBudget }

// Mode selects the scheduling regime.
type Mode int

// Scheduling regimes.
const (
	// ModeST is StackThreads/MP: polling victims, LTC policy.
	ModeST Mode = iota
	// ModeCilk is the Cilk-5 baseline: thief-driven steals, Cilk costs.
	ModeCilk
)

func (m Mode) String() string {
	if m == ModeCilk {
		return "cilk"
	}
	return "st"
}

// Policy selects which thread a victim gives away (ST mode only).
type Policy int

// Steal policies.
const (
	// StealOldest is Lazy Task Creation (Section 4.2): readyq tail first,
	// then the thread at the bottom of the logical stack.
	StealOldest Policy = iota
	// StealYoungest is the ablation: readyq head first, then the thread at
	// the top of the logical stack. It ships less work per steal, so it
	// needs many more steals for the same speedup.
	StealYoungest
)

// Engine selects the host execution strategy. Every engine produces
// byte-identical results for the same configuration and seed; see
// engine_throughput.go for the argument.
type Engine int

// Host execution strategies.
const (
	// EngineSequential steps the least-advanced worker on the calling
	// goroutine — the reference engine and differential oracle.
	EngineSequential Engine = iota
	// EngineThroughput speculates multi-quantum chains per virtual worker,
	// distributed over per-host-core work-stealing deques, and adopts them
	// segment by segment in the oracle's pick order.
	EngineThroughput
)

func (e Engine) String() string {
	if e == EngineThroughput {
		return "throughput"
	}
	return "sequential"
}

// Config tunes the scheduler.
type Config struct {
	Mode   Mode
	Policy Policy
	// Quantum is the slice, in cycles, a worker runs before the scheduler
	// re-picks (default 200).
	Quantum int64
	// Seed drives deterministic victim selection.
	Seed uint64
	// MaxCycles aborts runaway simulations (default 50 billion).
	MaxCycles int64
	// MaxWorkCycles, when positive, bounds the total work (summed worker
	// cycle counters) the run may consume; exceeding it aborts with a
	// *CycleBudgetError. Unlike MaxCycles — a backstop on virtual elapsed
	// time — this is the serving layer's per-job budget, checked at every
	// pick so both engines abort at the same deterministic point.
	MaxWorkCycles int64
	// Stop, when non-nil, is polled at every scheduler pick; a non-nil
	// return aborts the run with that error wrapped. core threads context
	// cancellation and deadlines through it.
	Stop func() error
	// Engine selects the host execution strategy (default sequential).
	Engine Engine
	// HostProcs caps the goroutines the throughput engine speculates on
	// (default runtime.GOMAXPROCS(0)).
	HostProcs int
	// Events, when non-nil, collects the run's migration-level history.
	Events *EventLog
	// Obs, when non-nil, receives cycle-phase attribution for scheduler
	// time (idle waits, steal requests, handshakes) and the enriched event
	// stream. It must be the same collector given to the machine.
	Obs *obs.Collector
	// Fault, when non-nil, injects deterministic scheduling faults (steal
	// drops/delays, spurious suspend/restart pairs, worker stalls, forced
	// speculation aborts) from its plan. Virtual faults are part of the
	// run's input: the same (tuple, plan, seed) produces byte-identical
	// results on both engines. Nil costs one pointer check per hook.
	Fault *fault.Injector
	// Audit, when non-nil, runs the live invariant auditor at scheduler
	// pick boundaries (both engines visit picks in the same order and are
	// quiescent there). A violation aborts the run with the typed
	// *invariant.Violation. Auditing charges no cycles: the run's bytes
	// are identical with or without it.
	Audit *invariant.Auditor
	// Progress, when non-nil, receives a live host-visible view of the
	// run's advancement (total work cycles, picks), stored at every pick
	// boundary. It is read concurrently by serving-side introspection
	// (/debug/jobs) and never influences the run: stores only, and a nil
	// pointer disables them entirely.
	Progress *obs.Progress
	// Contention, when non-nil, receives host-side engine contention
	// counts (speculation commits/reruns/discards). Host-timing-dependent
	// — never part of any deterministic artifact.
	Contention *Contention
	// Checkpoint, when non-nil, enables pick-boundary continuation capture:
	// periodic Sink invocations and cooperative yields (see checkpoint.go).
	Checkpoint *Checkpoint
}

// Result summarizes one parallel run.
type Result struct {
	RV int64
	// Time is the virtual time at which the program halted — the elapsed
	// time analogue for speedup curves.
	Time int64
	// WorkCycles is the sum of all workers' cycle counters at halt
	// (total work, including idle spinning).
	WorkCycles int64
	Steals     int64
	Attempts   int64
	Rejects    int64
	// Picks is the total number of pick boundaries the run passed through —
	// the length of the pick-boundary clock that Checkpoint.YieldAtPick
	// addresses. Engine-invariant, and a resumed run continues the count.
	Picks int64
	Stats []machine.Stats
}

type wStatus int

const (
	running wStatus = iota
	idle            // nothing to run; will attempt a steal at wakeAt
	waiting         // ST mode: posted a request, waiting for the reply
	halted
)

type stealReq struct {
	thief int
	// postedAt is the thief's virtual time when the request was posted; the
	// request→steal delta is the steal latency.
	postedAt int64
}

type scheduler struct {
	m   *machine.Machine
	cfg Config
	rng uint64

	status []wStatus
	wakeAt []int64     // for idle workers
	reqs   []*stealReq // pending request per victim
	// spurious marks workers whose poll signal was raised by the fault
	// injector rather than a steal request; servicePoll turns the flag
	// into a suspend/restart pair.
	spurious []bool

	// picks counts checkAbort calls — the pick-boundary clock the
	// checkpoint layer's YieldAtPick addresses.
	picks int64

	res Result
}

// testHookSabotage, when set (white-box tests only), runs at every pick
// boundary with the live scheduler, before the audit tick. Tests use it to
// corrupt machine state mid-run and prove the auditor catches it.
var testHookSabotage func(s *scheduler)

// newScheduler builds a scheduler over m with defaults applied; Run and
// Resume share it.
func newScheduler(m *machine.Machine, cfg Config) (*scheduler, error) {
	if cfg.Quantum <= 0 {
		cfg.Quantum = 200
	}
	if cfg.MaxCycles <= 0 {
		cfg.MaxCycles = 50_000_000_000
	}
	n := len(m.Workers)
	s := &scheduler{
		m:        m,
		cfg:      cfg,
		rng:      cfg.Seed*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03 | 1,
		status:   make([]wStatus, n),
		wakeAt:   make([]int64, n),
		reqs:     make([]*stealReq, n),
		spurious: make([]bool, n),
	}
	for i := 1; i < n; i++ {
		s.status[i] = idle
	}
	return s, nil
}

// execute runs the configured engine loop to completion and assembles the
// result.
func (s *scheduler) execute() (*Result, error) {
	loop := s.loop
	if s.cfg.Engine == EngineThroughput {
		loop = s.loopThroughput
	}
	err := s.protected(loop)
	if err != nil {
		return nil, err
	}
	for _, w := range s.m.Workers {
		s.res.WorkCycles += w.Cycles
		s.res.Stats = append(s.res.Stats, w.Stats)
		if cont := s.cfg.Contention; cont != nil {
			// Host-side JIT diagnostics ride the contention channel: they
			// are timing-dependent (which traces turn hot first depends on
			// the engine's interleaving) and must never enter Result.
			compiled, deopts := w.JITCounters()
			cont.JITCompiled.Add(compiled)
			cont.JITDeopts.Add(deopts)
		}
	}
	s.res.Picks = s.picks
	return &s.res, nil
}

// Run executes entry(args...) across all of m's workers under cfg.
func Run(m *machine.Machine, entry string, args []int64, cfg Config) (*Result, error) {
	entryPC, ok := m.Prog.EntryOf[entry]
	if !ok {
		return nil, fmt.Errorf("sched: no procedure %q", entry)
	}
	s, err := newScheduler(m, cfg)
	if err != nil {
		return nil, err
	}
	m.Workers[0].StartCall(entryPC, args)
	return s.execute()
}

// next returns the index of the worker with the earliest next-action time,
// or -1 when no worker can act.
func (s *scheduler) next() int {
	best, bestT := -1, int64(math.MaxInt64)
	for i := range s.status {
		var t int64
		switch s.status[i] {
		case running:
			t = s.m.Workers[i].Cycles
		case idle:
			t = s.wakeAt[i]
		default:
			continue
		}
		if t < bestT {
			best, bestT = i, t
		}
	}
	return best
}

// protected converts runtime faults raised by scheduler-driven machine
// operations (suspend/restart/shrink outside a worker's own Run) into
// errors, like Worker.Run does for faults in simulated code.
func (s *scheduler) protected(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = e
				return
			}
			panic(r)
		}
	}()
	return fn()
}

// checkAbort enforces the run limits at a pick boundary: the MaxCycles
// backstop, the MaxWorkCycles budget, and the cooperative Stop hook. Both
// engines call it with the picked worker, in the same pick sequence, so
// limit aborts are deterministic across engines.
func (s *scheduler) checkAbort(w *machine.Worker) error {
	s.picks++
	if w.Cycles > s.cfg.MaxCycles {
		return fmt.Errorf("sched: exceeded MaxCycles=%d", s.cfg.MaxCycles)
	}
	if s.cfg.MaxWorkCycles > 0 || s.cfg.Progress != nil {
		var work int64
		for _, ww := range s.m.Workers {
			work += ww.Cycles
		}
		if p := s.cfg.Progress; p != nil {
			p.WorkCycles.Store(work)
			p.Picks.Add(1)
		}
		if b := s.cfg.MaxWorkCycles; b > 0 && work > b {
			return &CycleBudgetError{Budget: b, Used: work}
		}
	}
	if s.cfg.Stop != nil {
		if err := s.cfg.Stop(); err != nil {
			return fmt.Errorf("sched: run stopped: %w", err)
		}
	}
	if testHookSabotage != nil {
		testHookSabotage(s)
	}
	if s.cfg.Audit != nil {
		audits := s.cfg.Audit.Audits()
		if v := s.cfg.Audit.Tick(s.m); v != nil {
			return v
		}
		if s.cfg.Audit.Audits() != audits {
			// A machine audit just ran clean; extend it with the
			// scheduler-level conservation checks at the same cadence.
			if err := s.auditSched(); err != nil {
				return err
			}
		}
	}
	if cp := s.cfg.Checkpoint; cp != nil {
		// Last, so a capture only happens at boundaries the run survives.
		if err := s.checkpointTick(cp); err != nil {
			return err
		}
	}
	return nil
}

// auditSched asserts the scheduler's own conservation invariants: every
// pending steal request names a waiting thief and a running, signaled
// victim, and every waiting thief has exactly one request in flight — no
// thread (or thief) is ever lost.
func (s *scheduler) auditSched() error {
	pending := make(map[int]int)
	for v, req := range s.reqs {
		if req == nil {
			continue
		}
		detail := ""
		switch {
		case s.status[v] != running:
			detail = fmt.Sprintf("steal request pending on non-running victim %d", v)
		case !s.m.Workers[v].PollSignal:
			detail = fmt.Sprintf("victim %d has a pending request but no poll signal", v)
		case s.status[req.thief] != waiting:
			detail = fmt.Sprintf("request from worker %d which is not waiting", req.thief)
		}
		if detail != "" {
			return &invariant.Violation{Rule: "sched-conservation", Worker: v,
				Detail: detail, Dump: invariant.Dump(s.m)}
		}
		pending[req.thief]++
	}
	for i, st := range s.status {
		if st == waiting && pending[i] != 1 {
			return &invariant.Violation{Rule: "sched-conservation", Worker: i,
				Detail: fmt.Sprintf("waiting thief has %d pending requests (lost thread)", pending[i]),
				Dump:   invariant.Dump(s.m)}
		}
	}
	return nil
}

// injectVirtual runs the virtual-fault sites for the picked running
// worker. It reports true when the pick was consumed by a fault (the
// worker stalled) and the scheduler must re-pick. Both engines call it
// once per running-worker pick, in the same pick order, so the fault
// streams — and therefore the faulted schedule — are engine-independent.
func (s *scheduler) injectVirtual(i int) bool {
	f := s.cfg.Fault
	if f == nil {
		return false
	}
	w := s.m.Workers[i]
	if d := f.Stall(); d > 0 {
		// A memory-system hiccup: the worker burns d cycles making no
		// progress. Charged as idle time so attribution stays exact.
		if w.Obs != nil {
			w.Obs.Charge(obs.PhaseIdle, d)
		}
		w.Cycles += d
		s.cfg.Obs.Instant(w.Cycles, i, "fault-stall", obs.Arg{K: "cycles", V: d})
		return true
	}
	if s.cfg.Mode == ModeST && !w.PollSignal && f.SpuriousPoll() {
		// Spuriously raise the poll signal: at its next poll point the
		// worker finds no request and runs a suspend/restart pair instead
		// (see servicePoll) — adversarial suspension at a point where
		// suspension is architecturally safe.
		s.spurious[i] = true
		w.PollSignal = true
	}
	return false
}

func (s *scheduler) loop() error {
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
			s.stepIdle(i)
			if done, err := s.quiescent(); done {
				return err
			}
			continue
		}

		if s.injectVirtual(i) {
			continue
		}
		if done, err := s.handleEvent(i, w.Run(s.cfg.Quantum)); done {
			return err
		}
	}
}

// stepIdle advances idle worker i to its wake time and runs one steal
// attempt.
func (s *scheduler) stepIdle(i int) {
	w := s.m.Workers[i]
	if w.Cycles < s.wakeAt[i] {
		if w.Obs != nil {
			w.Obs.Charge(obs.PhaseIdle, s.wakeAt[i]-w.Cycles)
		}
		w.Cycles = s.wakeAt[i]
	}
	s.attemptSteal(i)
}

// handleEvent processes the event worker i's quantum ended with. done
// reports the run is over: err is nil on a clean halt, the fault on a trap,
// and the deadlock report when the last worker went idle with no work left.
func (s *scheduler) handleEvent(i int, ev machine.Event) (bool, error) {
	w := s.m.Workers[i]
	switch ev {
	case machine.EvBudget:
		// slice over; reschedule
	case machine.EvHalt:
		s.res.RV = w.Regs[isa.RV]
		s.res.Time = w.Cycles
		s.status[i] = halted
		s.cfg.Events.add(TraceEvent{Time: w.Cycles, Kind: TraceHalt, Worker: i, From: -1})
		s.cfg.Obs.Instant(w.Cycles, i, "halt")
		return true, nil
	case machine.EvBottom:
		w.Shrink()
		if c := w.ReadyQ.PopHead(); c != nil {
			s.cfg.Events.add(TraceEvent{Time: w.Cycles, Kind: TraceResume, Worker: i, From: -1,
				Frame: c.Top, ResumePC: c.ResumePC})
			if s.cfg.Obs != nil {
				s.cfg.Obs.Instant(w.Cycles, i, "resume", obs.Arg{K: "frame", V: c.Top})
				s.cfg.Obs.CounterSample(w.Cycles, i, "readyq", int64(w.ReadyQ.Len()))
			}
			w.StartThread(c)
			return false, nil
		}
		s.cfg.Events.add(TraceEvent{Time: w.Cycles, Kind: TraceIdle, Worker: i, From: -1})
		s.cfg.Obs.Instant(w.Cycles, i, "idle")
		s.goIdle(i, w.Cycles)
		return s.quiescent()
	case machine.EvPoll:
		s.servicePoll(i)
	case machine.EvBlocked:
		// Spin on the contended lock; virtual time passes so the
		// holder gets scheduled.
		w.Cycles += 8
		if w.Obs != nil {
			w.Obs.Charge(obs.PhaseIdle, 8)
		}
	case machine.EvTrap:
		return true, w.Err
	default:
		return true, fmt.Errorf("sched: unexpected event %v from worker %d", ev, i)
	}
	return false, nil
}

func (s *scheduler) goIdle(i int, at int64) {
	s.status[i] = idle
	s.wakeAt[i] = at
	// A worker going idle can no longer answer its request port; reject the
	// pending request so the thief does not wait forever.
	if req := s.reqs[i]; req != nil {
		s.reqs[i] = nil
		s.m.Workers[i].PollSignal = false
		s.res.Rejects++
		thief := s.m.Workers[req.thief]
		if thief.Cycles < at {
			if thief.Obs != nil {
				thief.Obs.Charge(obs.PhaseIdle, at-thief.Cycles)
			}
			thief.Cycles = at
		}
		s.goIdle(req.thief, thief.Cycles)
	}
}

// quiescent reports whether no work remains anywhere: every worker idle or
// waiting with empty stacks and ready queues. That state is a deadlock —
// the program blocked without halting.
func (s *scheduler) quiescent() (bool, error) {
	for i, w := range s.m.Workers {
		if s.status[i] == running {
			return false, nil
		}
		if w.FP() != 0 || !w.ReadyQ.Empty() {
			return false, nil
		}
	}
	return true, fmt.Errorf("sched: deadlock: all workers idle with no ready work")
}

// nextRand steps the scheduler's deterministic generator.
func (s *scheduler) nextRand() uint64 {
	x := s.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	s.rng = x
	return x
}

// attemptSteal runs one steal attempt for idle worker i at its current
// virtual time.
func (s *scheduler) attemptSteal(i int) {
	s.res.Attempts++
	if s.cfg.Mode == ModeCilk {
		s.attemptStealCilk(i)
		return
	}
	w := s.m.Workers[i]
	if w.Obs != nil {
		// Everything the thief pays inside one attempt — victim probes and
		// posting the request — is steal-request work.
		t0 := w.Cycles
		defer func() {
			if d := w.Cycles - t0; d > 0 {
				w.Obs.Charge(obs.PhaseStealReq, d)
			}
		}()
	}
	retry := func() {
		s.wakeAt[i] = w.Cycles + s.m.Cost.StealHandshake
	}
	// Probe for a victim that visibly has work (a non-empty logical stack
	// or ready queue) and a free request port — reading another worker's
	// state words is an ordinary shared-memory load.
	n := len(s.m.Workers)
	if n < 2 {
		retry()
		return
	}
	start := int(s.nextRand() % uint64(n))
	v := -1
	for k := 0; k < n; k++ {
		cand := (start + k) % n
		if cand == i {
			continue
		}
		w.Cycles += 2 // probe load
		cw := s.m.Workers[cand]
		if s.reqs[cand] == nil && s.status[cand] == running &&
			(cw.FP() != 0 || !cw.ReadyQ.Empty()) {
			v = cand
			break
		}
	}
	if v < 0 {
		retry()
		return
	}
	vw := s.m.Workers[v]
	// Post the request; the victim sees it at its next poll point.
	w.Cycles += s.m.Cost.StealHandshake
	if s.cfg.Fault.StealDrop() {
		// Injected fault: the request write is lost in transit — the thief
		// has paid for the round trip, but the victim never sees it.
		s.cfg.Obs.Instant(w.Cycles, i, "fault-steal-drop", obs.Arg{K: "victim", V: int64(v)})
		retry()
		return
	}
	if d := s.cfg.Fault.StealDelay(); d > 0 {
		// Injected fault: the request dawdles on the interconnect.
		w.Cycles += d
		s.cfg.Obs.Instant(w.Cycles, i, "fault-steal-delay", obs.Arg{K: "cycles", V: d})
	}
	s.reqs[v] = &stealReq{thief: i, postedAt: w.Cycles}
	vw.PollSignal = true
	s.status[i] = waiting
	s.cfg.Events.add(TraceEvent{Time: w.Cycles, Kind: TraceRequest, Worker: i, From: v})
	s.cfg.Obs.Instant(w.Cycles, i, "steal-request", obs.Arg{K: "victim", V: int64(v)})
}

// servicePoll handles a victim noticing its request port (Figure 10's
// check_steal_request, run by the runtime).
func (s *scheduler) servicePoll(v int) {
	vw := s.m.Workers[v]
	vw.PollSignal = false
	req := s.reqs[v]
	if req == nil {
		if s.spurious[v] {
			s.spurious[v] = false
			s.injectSpurious(v)
		}
		return
	}
	// A real request absorbs any spurious signal raised alongside it.
	s.spurious[v] = false
	s.reqs[v] = nil
	var vt0, va0 int64
	if vw.Obs != nil {
		vt0, va0 = vw.Cycles, vw.Obs.AttributedTotal()
		s.cfg.Obs.CounterSample(vw.Cycles, v, "readyq", int64(vw.ReadyQ.Len()))
	}
	vw.Shrink()

	var reply *machine.Context
	if s.cfg.Policy == StealYoungest {
		if c := vw.ReadyQ.PopHead(); c != nil {
			reply = c
			vw.Cycles += s.m.Cost.StealHandshake / 2
		} else if vw.CountThreads() >= 2 {
			// Detach just the topmost thread and hand it over.
			reply = vw.SuspendCurrent(vw.PC, 1)
		} else {
			s.res.Rejects++
		}
	} else if c := vw.ReadyQ.PopTail(); c != nil {
		// LTC: give the task at the tail of readyq (Figure 12).
		reply = c
		vw.Cycles += s.m.Cost.StealHandshake / 2
	} else if n := vw.CountThreads(); n >= 2 {
		// Give the thread at the bottom of the logical stack: detach the
		// n-1 threads above it, then the bottom thread itself, and push
		// the unwound threads back (Figure 9).
		vw.Cycles += int64(n) * 3 // stack scan
		above := vw.SuspendCurrent(vw.PC, n-1)
		bottom := vw.SuspendAllCurrent(vw.PC)
		vw.StartThread(above)
		reply = bottom
	} else {
		s.res.Rejects++
	}

	if vw.Obs != nil {
		// The victim's service time minus what the inner suspends already
		// attributed is pure handshake work.
		if d := (vw.Cycles - vt0) - (vw.Obs.AttributedTotal() - va0); d > 0 {
			vw.Obs.Charge(obs.PhaseHandshake, d)
		}
		s.cfg.Obs.Span(vt0, vw.Cycles, v, "steal-service", obs.Arg{K: "thief", V: int64(req.thief)})
	}

	thief := s.m.Workers[req.thief]
	at := vw.Cycles + s.m.Cost.StealHandshake
	if thief.Cycles < at {
		// The thief blocks from posting the request until the reply lands.
		if thief.Obs != nil {
			thief.Obs.Charge(obs.PhaseHandshake, at-thief.Cycles)
		}
		thief.Cycles = at
	}
	if reply != nil {
		s.res.Steals++
		latency := thief.Cycles - req.postedAt
		s.cfg.Events.add(TraceEvent{Time: thief.Cycles, Kind: TraceSteal, Worker: req.thief, From: v,
			Frame: reply.Top, ResumePC: reply.ResumePC, Latency: latency})
		if s.cfg.Obs != nil {
			s.cfg.Obs.StealLatency.Observe(latency)
			s.cfg.Obs.Instant(thief.Cycles, req.thief, "steal",
				obs.Arg{K: "victim", V: int64(v)},
				obs.Arg{K: "frame", V: reply.Top},
				obs.Arg{K: "latency", V: latency})
		}
		thief.StartThread(reply)
		s.status[req.thief] = running
	} else {
		s.cfg.Events.add(TraceEvent{Time: thief.Cycles, Kind: TraceReject, Worker: req.thief, From: v})
		s.cfg.Obs.Instant(thief.Cycles, req.thief, "steal-reject", obs.Arg{K: "victim", V: int64(v)})
		s.goIdle(req.thief, thief.Cycles)
	}
}

// injectSpurious is the fault injector's adversarial suspension: the
// worker behaves exactly as if servicing a steal request at its poll
// point — but no thief exists, so the detached thread re-enters its own
// scheduling: the ready queue when other threads remain below it, or an
// immediate restart when it was the whole logical stack (a pure
// suspend/restart round trip). This stresses export, unwind, context
// capture and restart on schedules the migration protocol alone never
// produces. Suspension happens only at poll points, where the machine
// guarantees it is architecturally safe (the steal-youngest path suspends
// at exactly the same points).
func (s *scheduler) injectSpurious(v int) {
	vw := s.m.Workers[v]
	if vw.FP() == 0 {
		return // nothing to suspend
	}
	var vt0, va0 int64
	if vw.Obs != nil {
		vt0, va0 = vw.Cycles, vw.Obs.AttributedTotal()
	}
	vw.Cycles += int64(vw.CountThreads()) * 3 // stack scan, as in steal service
	c := vw.SuspendCurrent(vw.PC, 1)
	if vw.FP() == 0 {
		vw.StartThread(c)
	} else {
		vw.ReadyQ.PushTail(c)
	}
	if vw.Obs != nil {
		if d := (vw.Cycles - vt0) - (vw.Obs.AttributedTotal() - va0); d > 0 {
			vw.Obs.Charge(obs.PhaseHandshake, d)
		}
	}
	s.cfg.Obs.Instant(vw.Cycles, v, "fault-spurious-suspend",
		obs.Arg{K: "readyq", V: int64(vw.ReadyQ.Len())})
}

// attemptStealCilk performs a thief-driven Cilk steal: scan victims in
// random order and take the readyq tail or the oldest fork continuation.
func (s *scheduler) attemptStealCilk(i int) {
	w := s.m.Workers[i]
	if w.Obs != nil {
		// The whole thief-driven attempt (THE-protocol steal or the failed
		// scan) is steal-request work; Cilk has no victim-side handshake.
		t0 := w.Cycles
		defer func() {
			if d := w.Cycles - t0; d > 0 {
				w.Obs.Charge(obs.PhaseStealReq, d)
			}
		}()
	}
	if s.cfg.Fault.StealDrop() {
		// Injected fault: the thief's scan is futile (its probes race with
		// the victims and lose); pay the failed-scan cost and retry later.
		w.Cycles += s.m.Cost.StealHandshake / 4
		s.cfg.Obs.Instant(w.Cycles, i, "fault-steal-drop")
		s.wakeAt[i] = w.Cycles + s.m.Cost.StealHandshake
		return
	}
	n := len(s.m.Workers)
	start := int(s.nextRand() % uint64(n))
	for k := 0; k < n; k++ {
		v := (start + k) % n
		if v == i {
			continue
		}
		vw := s.m.Workers[v]
		var c *machine.Context
		if c = vw.ReadyQ.PopTail(); c == nil {
			c = vw.StealOldestCilk()
		}
		if c != nil {
			s.res.Steals++
			w.Cycles += s.m.Cost.CilkStealCost
			s.cfg.Events.add(TraceEvent{Time: w.Cycles, Kind: TraceSteal, Worker: i, From: v,
				Frame: c.Top, ResumePC: c.ResumePC})
			s.cfg.Obs.Instant(w.Cycles, i, "steal",
				obs.Arg{K: "victim", V: int64(v)},
				obs.Arg{K: "frame", V: c.Top})
			w.StartThread(c)
			s.status[i] = running
			return
		}
	}
	w.Cycles += s.m.Cost.StealHandshake / 4
	s.wakeAt[i] = w.Cycles + s.m.Cost.StealHandshake
}
