package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/figures"
	"repro/internal/invariant"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/snapshot"
)

// JobRequest is the wire form of one simulation job. The canonical-tuple
// fields alone determine every byte of the output (runs are pure functions
// of the tuple — the repository's determinism guarantee); the serving
// directives decide how and when the job runs, never what it produces.
type JobRequest struct {
	// Canonical tuple.
	App           string `json:"app"`
	Full          bool   `json:"full,omitempty"`
	Mode          string `json:"mode,omitempty"` // seq | st | cilk (default st)
	Workers       int    `json:"workers,omitempty"`
	CPU           string `json:"cpu,omitempty"` // default sparc
	Seed          uint64 `json:"seed,omitempty"`
	Quantum       int64  `json:"quantum,omitempty"`
	StealYoungest bool   `json:"steal_youngest,omitempty"`
	MaxWorkCycles int64  `json:"max_work_cycles,omitempty"`
	// FaultPlan names a deterministic virtual-fault plan, "name" or
	// "name:seed" (internal/fault). Virtual faults reshape the schedule —
	// and therefore the run's bytes — deterministically, so the plan is
	// part of the canonical tuple.
	FaultPlan string `json:"fault_plan,omitempty"`

	// Serving directives.
	Engine    string `json:"engine,omitempty"` // sequential | throughput (identical bytes)
	HostProcs int    `json:"hostprocs,omitempty"`
	Priority  int    `json:"priority,omitempty"` // higher dispatches first; FIFO within a class
	TimeoutMs int64  `json:"timeout_ms,omitempty"`
	NoCache   bool   `json:"no_cache,omitempty"`
	Wait      bool   `json:"wait,omitempty"` // POST blocks until the job is terminal
	// Audit, when positive, runs the §3.2 invariant auditor every Audit
	// scheduler picks. Auditing changes no output byte (a violation fails
	// the job instead), so it is not part of the canonical tuple.
	Audit int `json:"audit,omitempty"`

	// Artifact selection: which deterministic artifacts to include in the
	// response (the Result is always included).
	Metrics bool `json:"metrics,omitempty"`
	Profile bool `json:"profile,omitempty"`
	Trace   bool `json:"trace,omitempty"`
}

// maxJobWorkers caps a request's virtual worker count. Each worker maps a
// stack, and the page table grows with the mapped extent, so an unbounded
// count could exhaust the host's memory before the run starts.
const maxJobWorkers = 4096

// normalize applies defaults and validates the request.
func (r *JobRequest) normalize() error {
	if r.Mode == "" {
		r.Mode = "st"
	}
	switch r.Mode {
	case "seq", "st", "cilk":
	default:
		return fmt.Errorf("unknown mode %q (want seq, st or cilk)", r.Mode)
	}
	if r.Workers > maxJobWorkers {
		return fmt.Errorf("workers %d exceeds the cap of %d", r.Workers, maxJobWorkers)
	}
	if r.Workers <= 0 || r.Mode == "seq" {
		r.Workers = 1
	}
	// Non-positive values mean the default; one spelling keeps one cache key.
	r.Quantum = max(r.Quantum, 0)
	r.MaxWorkCycles = max(r.MaxWorkCycles, 0)
	if r.CPU == "" {
		r.CPU = "sparc"
	}
	if isa.CostModelByName(r.CPU) == nil {
		return fmt.Errorf("unknown cpu %q", r.CPU)
	}
	if _, err := core.ParseEngine(r.Engine); err != nil {
		return err
	}
	plan, err := fault.ParsePlan(r.FaultPlan)
	if err != nil {
		return err
	}
	// Canonicalize so "none", "" and equivalent spellings share a cache key.
	if plan == nil {
		r.FaultPlan = ""
	} else {
		r.FaultPlan = plan.String()
	}
	if r.Audit < 0 {
		return fmt.Errorf("negative audit cadence %d", r.Audit)
	}
	if _, err := r.workload(); err != nil {
		return err
	}
	return nil
}

// Key is the canonical cache key: exactly the fields that determine the
// run's bytes, in a fixed order. The engine is deliberately absent — every
// engine (sequential, throughput) produces byte-identical output
// for the same tuple, so a result computed by any serves requests for all.
// The fault plan is present:
// virtual faults deterministically reshape the schedule. The audit cadence
// is absent: auditing never changes a byte.
func (r *JobRequest) Key() string {
	return fmt.Sprintf("app=%s|full=%t|mode=%s|workers=%d|cpu=%s|seed=%d|quantum=%d|ysteal=%t|budget=%d|fault=%s",
		r.App, r.Full, r.Mode, r.Workers, r.CPU, r.Seed, r.Quantum, r.StealYoungest, r.MaxWorkCycles, r.FaultPlan)
}

// CacheKey is Key qualified by the snapshot format version. Every versioned
// artifact — result-cache entries, checkpoints, cluster routing — is keyed
// by it, so a node upgraded to a new snapshot encoding can never serve or
// resume an artifact written under the old one: the key simply never
// matches, and the codec's own version check backstops direct decodes.
func (r *JobRequest) CacheKey() string {
	return fmt.Sprintf("%s|snapver=%d", r.Key(), snapshot.FormatVersion)
}

// Normalized returns the request in canonical form: defaults applied and
// validated. Cluster nodes route by the canonical tuple's CacheKey, so
// every node must normalize a request identically before hashing it —
// otherwise "mode omitted" and "mode st" would land on different shards.
func (r JobRequest) Normalized() (JobRequest, error) {
	err := (&r).normalize()
	return r, err
}

// workload builds the benchmark the request names.
func (r *JobRequest) workload() (*apps.Workload, error) {
	v := apps.ST
	if r.Mode == "seq" {
		v = apps.Seq
	}
	if r.App == "pingpong" {
		// The suspension kernel; the full scale is deliberately long-running
		// (it is the serving tests' cancellation target).
		rounds := int64(100)
		if r.Full {
			rounds = 1_000_000
		}
		return apps.PingPong(rounds, v), nil
	}
	sc := figures.Quick
	if r.Full {
		sc = figures.Full
	}
	return figures.Workload(r.App, sc, v)
}

// JobOutput is the deterministic product of one execution: the run result
// plus the observability artifacts. Every field is byte-identical for a
// given canonical tuple, regardless of engine, host parallelism, or whether
// it was computed fresh or replayed from the cache.
type JobOutput struct {
	Result  *core.Result
	Metrics json.RawMessage
	Profile string
	Trace   json.RawMessage
}

// ExecOpts carries host-side observability sinks and checkpoint plumbing
// into an execution. None of it changes a run's bytes: progress and
// contention are live introspection, and capture/resume is byte-transparent
// (the round-trip property tests prove it) — a resumed run finishes with
// output identical to an undisturbed one.
type ExecOpts struct {
	// Progress, when non-nil, receives the run's live advancement (work
	// cycles, picks) at scheduler pick boundaries.
	Progress *obs.Progress
	// Contention, when non-nil, accumulates throughput-engine speculation
	// counters (epochs, commits, reruns, discards, host steals).
	Contention *sched.Contention

	// Checkpoints, when non-nil, persists the run's continuation every
	// CheckpointCycles of virtual work under the request's CacheKey, and
	// resumes from a stored checkpoint when one exists. Sequential-mode jobs
	// have no pick boundaries and ignore it.
	Checkpoints snapshot.Store
	// CheckpointCycles is the periodic capture cadence in virtual work
	// cycles (default 2,000,000 when Checkpoints is set).
	CheckpointCycles int64
	// Checkpoint, when non-nil, is attached as the run's capture handle so
	// the caller can RequestYield a running job (cluster work stealing); the
	// yielded continuation comes back as a *SuspendedError.
	Checkpoint *sched.Checkpoint
	// Resume, when non-nil, is an encoded continuation to adopt instead of
	// starting fresh — the thief side of a steal, or a reclaim. A snapshot
	// whose format or key does not match fails typed (*snapshot.VersionError
	// or ErrSnapshotKey): adopting the wrong continuation must never run.
	Resume []byte
	// TraceID is stamped into checkpoints so a resumed run's artifacts join
	// the originating request's end-to-end trace.
	TraceID string
	// Notify, when non-nil, receives host-side execution events: "resume"
	// (continued from a checkpoint), "checkpoint" (one written), and
	// "stale-format" (a stale-version checkpoint was found and deleted).
	Notify func(event string)
}

// ErrSnapshotKey rejects a continuation whose embedded job key does not
// match the request it was offered for.
var ErrSnapshotKey = errors.New("server: continuation belongs to a different job tuple")

// SuspendedError reports a run that yielded at a pick boundary on request.
// It carries the complete encoded continuation — machine, scheduler, fault
// and observability state — ready to adopt on any node.
type SuspendedError struct {
	Key string
	Enc []byte
}

func (e *SuspendedError) Error() string {
	return fmt.Sprintf("server: job suspended at a pick boundary (continuation %d bytes)", len(e.Enc))
}

// Execute runs one job to completion on the calling goroutine. It is a pure
// function of the request's canonical tuple: ctx and the engine choice
// decide whether it finishes, never the bytes it produces. Every run
// carries an obs collector so the cached artifacts are complete. A
// FaultPlan is part of the tuple (virtual faults deterministically reshape
// the schedule); the audit cadence is not (a violation fails the job, a
// clean audit changes nothing).
func Execute(ctx context.Context, req JobRequest) (*JobOutput, error) {
	return ExecuteOpts(ctx, req, ExecOpts{})
}

// ExecuteOpts is Execute with host-side observability sinks and checkpoint
// plumbing attached.
func ExecuteOpts(ctx context.Context, req JobRequest, opts ExecOpts) (*JobOutput, error) {
	w, err := req.workload()
	if err != nil {
		return nil, err
	}
	eng, err := core.ParseEngine(req.Engine)
	if err != nil {
		return nil, err
	}
	plan, err := fault.ParsePlan(req.FaultPlan)
	if err != nil {
		return nil, err
	}
	var aud *invariant.Auditor
	if req.Audit > 0 {
		aud = invariant.New(int64(req.Audit))
	}
	var mode core.Mode
	switch req.Mode {
	case "seq":
		mode = core.Sequential
	case "cilk":
		mode = core.Cilk
	default:
		mode = core.StackThreads
	}
	col := obs.New()
	key := req.CacheKey()
	cfg := core.Config{
		Mode:          mode,
		Workers:       req.Workers,
		CPU:           isa.CostModelByName(req.CPU),
		Seed:          req.Seed,
		Quantum:       req.Quantum,
		StealYoungest: req.StealYoungest,
		Engine:        eng,
		HostProcs:     req.HostProcs,
		MaxWorkCycles: req.MaxWorkCycles,
		Ctx:           ctx,
		Obs:           col,
		Fault:         fault.New(plan),
		Audit:         aud,
		Progress:      opts.Progress,
		Contention:    opts.Contention,
	}

	var res *core.Result
	if mode == core.Sequential {
		// No pick boundaries: not checkpointable, not stealable.
		res, err = core.Run(w, cfg)
	} else {
		res, err = runScheduled(w, cfg, key, col, opts)
	}
	if err != nil {
		return nil, err
	}
	if opts.Checkpoints != nil {
		// The run is done; its checkpoint (if any) is stale.
		_ = opts.Checkpoints.Delete(key)
	}
	mjson, err := col.Metrics.MarshalJSON()
	if err != nil {
		return nil, fmt.Errorf("server: metrics snapshot: %w", err)
	}
	var prof, tr bytes.Buffer
	col.WriteReport(&prof)
	if err := col.WriteChromeTrace(&tr); err != nil {
		return nil, fmt.Errorf("server: trace export: %w", err)
	}
	return &JobOutput{
		Result:  res,
		Metrics: mjson,
		Profile: prof.String(),
		Trace:   tr.Bytes(),
	}, nil
}

// notify emits a host-side execution event to the options' sink.
func (o *ExecOpts) notify(event string) {
	if o.Notify != nil {
		o.Notify(event)
	}
}

// runScheduled executes a scheduled-mode (st/cilk) job with the checkpoint
// machinery attached: it adopts an explicit continuation or a stored
// checkpoint when one exists, captures periodic checkpoints while running,
// and surfaces a cooperative yield as a *SuspendedError carrying the
// encoded continuation.
func runScheduled(w *apps.Workload, cfg core.Config, key string, col *obs.Collector, opts ExecOpts) (*core.Result, error) {
	cp := opts.Checkpoint
	if cp == nil && opts.Checkpoints != nil {
		cp = &sched.Checkpoint{}
	}
	if cp != nil && opts.Checkpoints != nil {
		cp.EveryCycles = opts.CheckpointCycles
		if cp.EveryCycles <= 0 {
			cp.EveryCycles = 2_000_000
		}
		cp.Sink = func(b *sched.Boundary) error {
			enc, err := snapshot.Encode(&snapshot.Snapshot{
				Key:     key,
				TraceID: opts.TraceID,
				Mach:    b.Mach,
				Sched:   b.Sched,
				Fault:   b.Fault,
				Obs:     col.ExportState(),
			})
			if err != nil {
				return err
			}
			// Persisting is best-effort: a full disk must degrade the
			// checkpoint cadence, not kill a correct run.
			if opts.Checkpoints.Put(key, enc) == nil {
				opts.notify("checkpoint")
			}
			return nil
		}
	}
	cfg.Checkpoint = cp

	boundary, err := adoptContinuation(key, col, &opts)
	if err != nil {
		return nil, err
	}
	var res *core.Result
	if boundary != nil {
		opts.notify("resume")
		res, err = core.Resume(w, cfg, boundary)
	} else {
		res, err = core.Run(w, cfg)
	}
	var ye *sched.YieldError
	if errors.As(err, &ye) {
		enc, eerr := snapshot.Encode(&snapshot.Snapshot{
			Key:     key,
			TraceID: opts.TraceID,
			Mach:    ye.Boundary.Mach,
			Sched:   ye.Boundary.Sched,
			Fault:   ye.Boundary.Fault,
			Obs:     col.ExportState(),
		})
		if eerr != nil {
			return nil, fmt.Errorf("server: encode yielded continuation: %w", eerr)
		}
		return nil, &SuspendedError{Key: key, Enc: enc}
	}
	return res, err
}

// adoptContinuation picks the continuation to resume from: an explicit
// opts.Resume (steal adoption / reclaim — mismatches are hard, typed
// errors) or, failing that, a stored checkpoint for the key (best-effort —
// stale or corrupt artifacts are deleted and the run starts fresh). When it
// returns a boundary, the collector already holds the continuation's
// observability state.
func adoptContinuation(key string, col *obs.Collector, opts *ExecOpts) (*sched.Boundary, error) {
	use := func(enc []byte) (*sched.Boundary, error) {
		snap, err := snapshot.Decode(enc)
		if err != nil {
			return nil, err
		}
		if snap.Key != key {
			return nil, fmt.Errorf("%w: have %q, want %q", ErrSnapshotKey, snap.Key, key)
		}
		if snap.Obs != nil {
			if err := col.ImportState(snap.Obs); err != nil {
				return nil, fmt.Errorf("server: continuation obs state: %w", err)
			}
		}
		return &sched.Boundary{Mach: snap.Mach, Sched: snap.Sched, Fault: snap.Fault}, nil
	}
	if opts.Resume != nil {
		return use(opts.Resume)
	}
	if opts.Checkpoints == nil {
		return nil, nil
	}
	enc, err := opts.Checkpoints.Get(key)
	if err != nil {
		return nil, nil // no checkpoint: fresh run
	}
	b, err := use(enc)
	if err != nil {
		// Stale format, corruption, or a hash collision in the store: the
		// artifact is unusable, so drop it and recompute. The typed
		// *snapshot.VersionError is what an upgraded node sees here.
		var ve *snapshot.VersionError
		if errors.As(err, &ve) {
			opts.notify("stale-format")
		}
		_ = opts.Checkpoints.Delete(key)
		return nil, nil
	}
	return b, nil
}

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
	StateTimeout  = "timeout"
	// StateStolen is non-terminal: the job's continuation is out for
	// adoption by a cluster peer under a claim. It becomes done when the
	// thief posts the result back, or requeues locally when the claim
	// expires.
	StateStolen = "stolen"
)

// Job is one accepted request's lifecycle record.
type Job struct {
	ID  string
	Req JobRequest

	seq uint64 // admission order; the FIFO tiebreak within a priority class

	// traceID joins this job to the client's end-to-end trace. Minted at
	// admission when the client sent none; immutable afterwards.
	traceID string

	// progress is the live advancement view the executor writes and
	// /debug/jobs reads; allocated at dispatch, atomics inside.
	progress *obs.Progress

	// Guarded by the server mutex.
	state    string
	phase    string // live serving phase: queued | cache-probe | execute | finished
	errMsg   string
	failure  string // taxonomy class once failed (Fail* constants)
	cacheUse string // "hit", "miss" or "bypass" once decided
	out      *JobOutput

	// hostSpans are this job's wall-clock serving spans (enqueue wait,
	// cache probe, execution). Host-side observability only — never part
	// of any deterministic artifact. Guarded by the server mutex.
	hostSpans []obs.HostSpan

	// Checkpoint/steal lifecycle (guarded by the server mutex).
	cp        *sched.Checkpoint // live capture handle while running (nil for seq)
	resume    []byte            // continuation to adopt at dispatch
	stolenEnc []byte            // encoded continuation while out for adoption
	claim     string            // active steal claim token ("" = none)
	stealCh   chan struct{}     // closed when the job suspends for a waiting thief
	resumed   bool              // continued from a checkpoint or continuation
	ckpts     int64             // periodic checkpoints written this lifetime
	lastCkpt  time.Time         // host time of the last checkpoint

	// Host-side timestamps (observability only — never part of any
	// deterministic artifact).
	submitted time.Time
	started   time.Time
	finished  time.Time

	cancel context.CancelFunc
	ctx    context.Context
	done   chan struct{} // closed when the job reaches a terminal state
}

// terminal reports whether a state is final.
func terminal(state string) bool {
	switch state {
	case StateDone, StateFailed, StateCanceled, StateTimeout:
		return true
	}
	return false
}

// Done exposes the completion channel (closed at the terminal transition).
func (j *Job) Done() <-chan struct{} { return j.done }

// TraceID returns the job's end-to-end trace id (immutable after
// admission, so no lock is needed).
func (j *Job) TraceID() string { return j.traceID }

// Terminal returns the job's final state once it has one. Before the
// terminal transition it returns ("", false); afterwards the state is
// immutable and the close of Done() orders the read.
func (j *Job) Terminal() (string, bool) {
	select {
	case <-j.done:
		return j.state, true
	default:
		return "", false
	}
}

// Output returns the job's deterministic output once it is terminal, nil
// before then and for jobs that finished without one (failed, canceled).
func (j *Job) Output() *JobOutput {
	select {
	case <-j.done:
		return j.out
	default:
		return nil
	}
}
