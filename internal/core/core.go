// Package core is the public façade of the StackThreads/MP reproduction:
// it compiles a workload through the toolchain of Figure 1 (sequential
// compiler → postprocessor → linker) and runs it under one of the three
// execution regimes of the paper's evaluation — plain sequential, the
// StackThreads/MP runtime, or the Cilk baseline — returning virtual-time
// results suitable for the Figures 17-22 experiments.
//
// Typical use:
//
//	w := apps.Fib(30, apps.ST)
//	res, err := core.Run(w, core.Config{Mode: core.StackThreads, Workers: 8})
//	fmt.Println(res.RV, res.Time)
package core

import (
	"context"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/apps"
	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Mode selects the execution regime.
type Mode int

// Execution regimes.
const (
	// Sequential runs on one worker with no thread runtime involvement
	// (pair with a Seq-variant workload for the "C" baseline).
	Sequential Mode = iota
	// StackThreads runs the StackThreads/MP runtime (LTC scheduling,
	// polling migration protocol).
	StackThreads
	// Cilk runs the Cilk-5 baseline (thief-driven steals, Cilk costs).
	Cilk
)

func (m Mode) String() string {
	switch m {
	case Sequential:
		return "seq"
	case StackThreads:
		return "stackthreads"
	case Cilk:
		return "cilk"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Engine selects the host execution strategy for the parallel modes. Every
// engine produces byte-identical results (same Result, metrics, events) for
// the same configuration and seed; the non-sequential engines just use more
// host cores to get there. See internal/sched/engine_throughput.go.
type Engine int

// Host execution strategies.
const (
	// EngineDefault defers to the ST_ENGINE environment variable (any valid
	// engine name; unset or empty selects sequential, anything else is an
	// error). CI uses it to force an engine across an unmodified test
	// suite.
	EngineDefault Engine = iota
	// EngineSequential steps workers one at a time on the calling
	// goroutine — the reference engine and differential oracle.
	EngineSequential
	// EngineThroughput speculates multi-quantum chains per virtual worker
	// over per-host-core work-stealing deques and adopts them in the
	// oracle's pick order.
	EngineThroughput
)

func (e Engine) String() string {
	switch e {
	case EngineSequential:
		return "sequential"
	case EngineThroughput:
		return "throughput"
	}
	return "default"
}

// ParseEngine maps a command-line engine name to an Engine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "default":
		return EngineDefault, nil
	case "seq", "sequential":
		return EngineSequential, nil
	case "tp", "throughput":
		return EngineThroughput, nil
	}
	return EngineDefault, fmt.Errorf("core: unknown engine %q (valid engines: sequential, throughput)", s)
}

// schedEngine resolves the configured engine to the scheduler's choice,
// consulting the ST_ENGINE environment variable for EngineDefault. An
// unknown ST_ENGINE value is an error naming the valid engines — a forced
// engine that silently fell back to sequential would void whatever the
// caller was trying to prove.
func (e Engine) schedEngine() (sched.Engine, error) {
	if e == EngineDefault {
		env, err := ParseEngine(os.Getenv("ST_ENGINE"))
		if err != nil {
			return sched.EngineSequential, fmt.Errorf("ST_ENGINE: %w", err)
		}
		e = env
	}
	if e == EngineThroughput {
		return sched.EngineThroughput, nil
	}
	return sched.EngineSequential, nil
}

// resolveJIT resolves the trace-JIT enable, letting the ST_JIT environment
// variable override the config in either direction — CI uses it to flip an
// unmodified test suite onto the JIT, exactly as ST_ENGINE flips engines.
// An unrecognized value is an error: a forced JIT leg that silently ran
// interpreted would void whatever the sweep was trying to prove.
func resolveJIT(configured bool) (bool, error) {
	switch v := os.Getenv("ST_JIT"); v {
	case "":
		return configured, nil
	case "1", "true", "on":
		return true, nil
	case "0", "false", "off":
		return false, nil
	default:
		return false, fmt.Errorf("ST_JIT: unrecognized value %q (want 1/true/on or 0/false/off)", v)
	}
}

// hostProcs resolves the host-parallelism cap, consulting ST_HOSTPROCS when
// the config leaves it unset.
func hostProcs(configured int) int {
	if configured > 0 {
		return configured
	}
	if v, err := strconv.Atoi(os.Getenv("ST_HOSTPROCS")); err == nil && v > 0 {
		return v
	}
	return 0 // scheduler default: runtime.GOMAXPROCS(0)
}

// Config parameterizes a run. The zero value means: sequential, one worker,
// SPARC cost model, default sizes.
type Config struct {
	Mode    Mode
	Workers int
	// Engine selects the host execution strategy for the parallel modes
	// (default: sequential, unless ST_ENGINE names another engine; an
	// unrecognized ST_ENGINE value fails the run). Results are identical
	// whichever engine runs.
	Engine Engine
	// HostProcs caps the host goroutines the throughput engine uses
	// (default: ST_HOSTPROCS, then runtime.GOMAXPROCS(0)).
	HostProcs int
	// JIT enables the interpreter's trace JIT (machine/jit.go): hot program
	// points compile into superblock traces that deoptimize to the
	// reference interpreter on traps, budget boundaries, builtins and
	// speculation. Purely a host-speed knob — results are byte-identical
	// with it on or off, on every engine. The ST_JIT environment variable
	// overrides it either way (1/true/on, 0/false/off); an unrecognized
	// value fails the run, like ST_ENGINE.
	JIT bool
	// CPU is the cost model (default isa.SPARC()).
	CPU *isa.CostModel
	// StackWords and HeapWords size the simulated memory (defaults:
	// machine.DefaultStackWords and 1<<20, or the workload's demand).
	StackWords int64
	HeapWords  int
	// CheckInvariants enables the runtime's stack-invariant checker.
	CheckInvariants bool
	// Seed drives every pseudo-random choice; equal seeds reproduce runs
	// exactly.
	Seed uint64
	// Quantum is the scheduler slice in cycles.
	Quantum int64
	// MaxWorkCycles, when positive, bounds the run's total work (summed
	// worker cycle counters); exceeding it aborts with an error matching
	// ErrCycleBudget. It is the serving layer's per-job limit and the
	// strun/stbench -maxcycles flag. The check is deterministic: the same
	// tuple aborts at the same point on every engine.
	MaxWorkCycles int64
	// Ctx, when non-nil, cancels the run cooperatively: the scheduler polls
	// it at every pick (and the sequential baseline between slices) and
	// aborts with the context's error once done. Cancellation affects only
	// whether a run finishes, never the bytes a finished run produces.
	Ctx context.Context
	// StealYoungest switches the ST steal policy from Lazy Task Creation's
	// steal-oldest to the steal-youngest ablation.
	StealYoungest bool
	// SegmentedStacks enables the Section 5.1 multi-stack scheme (see
	// machine.Options.SegmentedStacks).
	SegmentedStacks bool
	// Events, when non-nil, collects the run's migration-level history
	// (parallel modes only).
	Events *sched.EventLog
	// Obs, when non-nil, attaches the observability layer (internal/obs):
	// per-phase cycle attribution, the metrics registry, the sampling
	// profiler and the Chrome-trace event stream. Collection charges no
	// virtual cycles — results are identical with or without it.
	Obs *obs.Collector
	// Fault, when non-nil, injects deterministic faults from its plan (see
	// internal/fault). Virtual faults are part of the run's input — the
	// same (tuple, plan, seed) reproduces byte-identically on every
	// engine; host-transparent and serving faults never change output
	// bytes. Nil compiles to one pointer check per hook site.
	Fault *fault.Injector
	// Audit, when non-nil, runs the live Section 3.2 invariant auditor at
	// scheduler pick boundaries (and between sequential slices); a
	// violation aborts the run with a typed *invariant.Violation.
	// Auditing never changes a run's bytes.
	Audit *invariant.Auditor
	// Canary, when non-nil, arms the adversarial stack-safety harness: the
	// canary builtins register per-frame words here and the auditor's
	// caller-integrity / frame-confidentiality rules check them (see
	// machine.CanaryMap). Installing a map changes which builtins may be
	// speculated, so it is part of the run's configuration tuple.
	Canary *machine.CanaryMap
	// Progress, when non-nil, receives a live host-visible view of the
	// run's advancement (work cycles, picks), updated at scheduler pick
	// boundaries (and between sequential slices). Read concurrently by
	// serving-side introspection; never changes a run's bytes.
	Progress *obs.Progress
	// Contention, when non-nil, collects host-side engine contention
	// counters (speculation commits/reruns/discards). Host-timing-
	// dependent: diagnostics only, never part of a deterministic artifact.
	Contention *sched.Contention
	// Checkpoint, when non-nil, enables pick-boundary continuation capture
	// (periodic checkpoints and cooperative yields) in the scheduled modes;
	// see sched.Checkpoint. Sequential mode has no scheduler and is not
	// checkpointable — setting this with Mode Sequential fails the run.
	Checkpoint *sched.Checkpoint
	// Out receives simulated program output (print builtins).
	Out io.Writer
	// RegWindows, OmitFP and LockedLib select the code-generation cost
	// settings of the sequential-overhead experiments (Figures 17-20).
	RegWindows bool
	OmitFP     bool
	LockedLib  bool
}

// ErrCycleBudget is the sentinel matched by errors.Is against
// Config.MaxWorkCycles aborts; the concrete error is a *CycleBudgetError
// carrying the budget and the work consumed at the abort.
var ErrCycleBudget = sched.ErrCycleBudget

// CycleBudgetError is the typed budget-abort error (see sched).
type CycleBudgetError = sched.CycleBudgetError

// ctxStop adapts a context to the scheduler's cooperative stop hook; a nil
// context needs no hook at all.
func ctxStop(ctx context.Context) func() error {
	if ctx == nil {
		return nil
	}
	return func() error {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
			return nil
		}
	}
}

// Result reports a run's outcome in virtual time.
type Result struct {
	// RV is the program's return value.
	RV int64
	// Time is the virtual elapsed time in cycles (the makespan).
	Time int64
	// WorkCycles is the total cycles across workers (Time on one worker).
	WorkCycles int64
	// Instrs is the total instruction count across workers.
	Instrs int64
	// Steals, Attempts and Rejects describe migration activity.
	Steals, Attempts, Rejects int64
	// Picks is the number of scheduler pick boundaries (zero in sequential
	// mode, which has none). Checkpoint capture points address this clock.
	Picks int64
	// Stats holds the per-worker counters.
	Stats []machine.Stats
}

// Run compiles and executes the workload under cfg.
func Run(w *apps.Workload, cfg Config) (*Result, error) {
	prog, err := w.Compile()
	if err != nil {
		return nil, fmt.Errorf("core: compile %s/%s: %w", w.Name, w.Variant, err)
	}
	return RunProgram(prog, w, cfg)
}

// prepare resolves defaults, constructs the machine and runs the workload's
// memory setup — everything shared between a fresh run and a resumption
// (resumes must reconstruct the machine exactly as the capturing run did,
// so the checkpointed image lands on an identical layout).
func prepare(prog *isa.Program, w *apps.Workload, cfg *Config) (*machine.Machine, []int64, sched.Engine, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	// Resolve the engine up front, whatever the mode: a forced ST_ENGINE
	// that silently fell back to sequential would void whatever the caller
	// was trying to prove.
	engine, err := cfg.Engine.schedEngine()
	if err != nil {
		return nil, nil, engine, fmt.Errorf("core: %w", err)
	}
	jit, err := resolveJIT(cfg.JIT)
	if err != nil {
		return nil, nil, engine, fmt.Errorf("core: %w", err)
	}
	if cfg.CPU == nil {
		cfg.CPU = isa.SPARC()
	}
	heap := cfg.HeapWords
	if heap == 0 {
		heap = w.HeapWords
	}
	if heap == 0 {
		heap = 1 << 20
	}

	m := machine.New(prog, mem.New(heap), cfg.CPU, cfg.Workers, machine.Options{
		StackWords:      cfg.StackWords,
		SegmentedStacks: cfg.SegmentedStacks,
		CheckInvariants: cfg.CheckInvariants,
		CilkCost:        cfg.Mode == Cilk,
		Seed:            cfg.Seed,
		Out:             cfg.Out,
		RegWindows:      cfg.RegWindows,
		OmitFP:          cfg.OmitFP,
		LockedLib:       cfg.LockedLib,
		Obs:             cfg.Obs,
		Canary:          cfg.Canary,
		JIT:             jit,
	})

	args := w.Args
	if w.Setup != nil {
		args, err = w.Setup(m.Mem)
		if err != nil {
			return nil, nil, engine, fmt.Errorf("core: setup %s: %w", w.Name, err)
		}
	}
	return m, args, engine, nil
}

// schedConfig maps the core config onto the scheduler's.
func (cfg *Config) schedConfig(engine sched.Engine) sched.Config {
	mode := sched.ModeST
	if cfg.Mode == Cilk {
		mode = sched.ModeCilk
	}
	policy := sched.StealOldest
	if cfg.StealYoungest {
		policy = sched.StealYoungest
	}
	return sched.Config{
		Mode:          mode,
		Policy:        policy,
		Seed:          cfg.Seed,
		Quantum:       cfg.Quantum,
		MaxWorkCycles: cfg.MaxWorkCycles,
		Stop:          ctxStop(cfg.Ctx),
		Events:        cfg.Events,
		Obs:           cfg.Obs,
		Fault:         cfg.Fault,
		Audit:         cfg.Audit,
		Engine:        engine,
		HostProcs:     hostProcs(cfg.HostProcs),
		Progress:      cfg.Progress,
		Contention:    cfg.Contention,
		Checkpoint:    cfg.Checkpoint,
	}
}

// finishRun is the shared tail of a run or resumption: the final audit,
// instruction totals, observability finalization and result verification.
func finishRun(m *machine.Machine, w *apps.Workload, cfg *Config, res *Result) (*Result, error) {
	if cfg.Audit != nil {
		// Final full audit over the end state, whatever the cadence.
		if v := cfg.Audit.Audit(m); v != nil {
			return nil, v
		}
	}
	for _, st := range res.Stats {
		res.Instrs += st.Instrs
	}
	if cfg.Obs != nil {
		finishObs(cfg.Obs, m, res)
	}
	if w.Verify != nil {
		if err := w.Verify(m.Mem, res.RV); err != nil {
			return nil, fmt.Errorf("core: verify %s/%s: %w", w.Name, w.Variant, err)
		}
	}
	return res, nil
}

// RunProgram executes an already-compiled program for the workload (used
// when the caller wants custom postprocessing options, e.g. the overhead
// ablations).
func RunProgram(prog *isa.Program, w *apps.Workload, cfg Config) (*Result, error) {
	m, args, engine, err := prepare(prog, w, &cfg)
	if err != nil {
		return nil, err
	}

	res := &Result{}
	switch cfg.Mode {
	case Sequential:
		if cfg.Checkpoint != nil {
			return nil, fmt.Errorf("core: checkpointing requires a scheduled mode (st or cilk); sequential runs have no pick boundaries")
		}
		var rv int64
		var err error
		if cfg.MaxWorkCycles > 0 || cfg.Ctx != nil || cfg.Audit != nil || cfg.Progress != nil {
			// Slice the run so the budget, the context, the auditor and the
			// progress view are serviced periodically; slicing leaves the
			// simulation byte-identical.
			slice := cfg.Quantum
			if slice <= 0 {
				slice = 10_000
			}
			stop := ctxStop(cfg.Ctx)
			check := func(used int64) error {
				if p := cfg.Progress; p != nil {
					p.WorkCycles.Store(used)
					p.Picks.Add(1)
				}
				if cfg.MaxWorkCycles > 0 && used > cfg.MaxWorkCycles {
					return &CycleBudgetError{Budget: cfg.MaxWorkCycles, Used: used}
				}
				if stop != nil {
					if err := stop(); err != nil {
						return fmt.Errorf("core: run stopped: %w", err)
					}
				}
				if v := cfg.Audit.Tick(m); v != nil {
					return v
				}
				return nil
			}
			rv, err = m.RunSingleCheck(w.Entry, slice, check, args...)
		} else {
			rv, err = m.RunSingle(w.Entry, args...)
		}
		if err != nil {
			return nil, err
		}
		wk := m.Workers[0]
		res.RV = rv
		res.Time = wk.Cycles
		res.WorkCycles = wk.Cycles
		res.Stats = []machine.Stats{wk.Stats}
	case StackThreads, Cilk:
		sres, err := sched.Run(m, w.Entry, args, cfg.schedConfig(engine))
		if err != nil {
			return nil, err
		}
		res.fromSched(sres)
	default:
		return nil, fmt.Errorf("core: unknown mode %v", cfg.Mode)
	}
	return finishRun(m, w, &cfg, res)
}

// fromSched copies a scheduler result into the run result.
func (res *Result) fromSched(sres *sched.Result) {
	res.RV = sres.RV
	res.Time = sres.Time
	res.WorkCycles = sres.WorkCycles
	res.Steals = sres.Steals
	res.Attempts = sres.Attempts
	res.Rejects = sres.Rejects
	res.Picks = sres.Picks
	res.Stats = sres.Stats
}

// Resume continues a run from a continuation captured at a scheduler pick
// boundary (a sched.Boundary from a checkpoint sink or a *sched.YieldError).
// cfg must carry the same canonical tuple as the capturing run — mode,
// workers, cpu, seed, quantum, policy, budget, fault plan — because the
// machine is reconstructed from it before the captured state is installed;
// the engine choice is free. For byte-identical final artifacts the caller
// pre-seeds cfg.Obs (obs.Collector.ImportState), cfg.Events and cfg.Out
// with the partial state captured alongside the boundary, and imports the
// boundary's fault-injector state into cfg.Fault.
func Resume(w *apps.Workload, cfg Config, b *sched.Boundary) (*Result, error) {
	prog, err := w.Compile()
	if err != nil {
		return nil, fmt.Errorf("core: compile %s/%s: %w", w.Name, w.Variant, err)
	}
	if cfg.Mode != StackThreads && cfg.Mode != Cilk {
		return nil, fmt.Errorf("core: resume requires a scheduled mode (st or cilk), have %v", cfg.Mode)
	}
	if b == nil || b.Mach == nil || b.Sched == nil {
		return nil, fmt.Errorf("core: resume: incomplete boundary")
	}
	// Reconstruct the machine exactly as the capturing run's prepare did —
	// including the workload's memory setup, whose deterministic allocations
	// both recreate any addresses the workload's Verify closure captured and
	// keep the construction identical. The captured image then overwrites
	// memory wholesale.
	m, _, engine, err := prepare(prog, w, &cfg)
	if err != nil {
		return nil, err
	}
	if err := m.ImportState(b.Mach); err != nil {
		return nil, fmt.Errorf("core: resume: %w", err)
	}
	if err := cfg.Fault.ImportState(b.Fault); err != nil {
		return nil, fmt.Errorf("core: resume: %w", err)
	}
	sres, err := sched.Resume(m, cfg.schedConfig(engine), b.Sched)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	res.fromSched(sres)
	return finishRun(m, w, &cfg, res)
}

// finishObs closes out the observability layer at the end of a run: it
// fixes every worker's total (making the user phase the exact residual, so
// phase cycles sum to Result.WorkCycles), records the makespan, and fills
// the metrics registry from the run's counters and per-worker stats.
func finishObs(c *obs.Collector, m *machine.Machine, res *Result) {
	c.SetMakespan(res.Time)
	for i, w := range m.Workers {
		c.FinishWorker(i, w.Cycles)
	}
	reg := c.Metrics
	reg.Gauge("workers").Set(int64(len(m.Workers)))
	reg.Gauge("makespan_cycles").Set(res.Time)
	reg.Gauge("work_cycles").Set(res.WorkCycles)
	reg.Counter("instrs").Add(res.Instrs)
	reg.Counter("steals").Add(res.Steals)
	reg.Counter("steal_attempts").Add(res.Attempts)
	reg.Counter("steal_rejects").Add(res.Rejects)
	reg.Counter("profile_samples").Add(c.Samples())
	for _, st := range res.Stats {
		reg.Counter("calls").Add(st.Calls)
		reg.Counter("suspends").Add(st.Suspends)
		reg.Counter("restarts").Add(st.Restarts)
		reg.Counter("exports").Add(st.Exports)
		reg.Counter("shrinks").Add(st.Shrinks)
		reg.Counter("extends").Add(st.Extends)
		reg.Gauge("stack_high_water").Max(st.StackHighWater)
		reg.Counter("segments").Add(st.Segments)
		reg.Counter("segments_live").Add(st.SegmentsLive)
	}
}
