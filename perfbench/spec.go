package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/figures"
)

// workloadsJSON is the benchmark's workload definition: the parameters the
// runs use and, beside them, the layer → end-to-end predictions a later
// performance change names its "should move" and "should not move" pairs
// from. It is compiled in, so the file is the single source of truth.
//
//go:embed workloads.json
var workloadsJSON []byte

// Workload is one traffic mix.
type Workload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Path is "served" (HTTP against an in-process server) or "direct"
	// (core.Run / core.RunProgram, as strun and stbench call them).
	Path string `json:"path"`
	// Loop names the load shape: "closed", or "open+closed" for an open
	// loop at OpenRate followed by a closed loop.
	Loop string `json:"loop"`
	// Clients is the closed loop's concurrency, and the open loop's sender
	// and connection count.
	Clients int `json:"clients"`
	// OpenRate is the open loop's fixed offered rate (jobs per second).
	OpenRate float64 `json:"open_rate_per_s,omitempty"`
	// LatencyLimitMs is the SLO on the open loop's latency.
	LatencyLimitMs float64 `json:"latency_limit_ms,omitempty"`
	// Apps is the job mix: each consecutive block of len(Apps) jobs is a
	// seeded permutation of it, so every seed runs the same proportions.
	Apps  []string `json:"apps"`
	Scale string   `json:"scale"` // quick | full
	// Workers is the virtual worker count. Every job runs in mode st, the
	// StackThreads/MP runtime.
	Workers int `json:"workers"`
	// Engine is the host engine: sequential or throughput.
	Engine string `json:"engine"`
	// HostProcs is the server's executor slot count (served) or the
	// throughput engine's host goroutine cap (direct).
	HostProcs int `json:"host_procs"`
	// Checkpoint serves the jobs from a server with an in-memory snapshot
	// store at the default checkpoint cadence.
	Checkpoint bool `json:"checkpoint,omitempty"`
	// Pool, when positive, cycles the jobs through that many fixed tuples
	// instead of giving every job a unique seed.
	Pool int `json:"pool,omitempty"`
	// WarmupJobs is how many jobs each set-up runs before measuring, so
	// lazy initialisation and heap growth are not timed.
	WarmupJobs int `json:"warmup_jobs"`
	// OracleEvery and OracleMax choose the checked sample: every
	// OracleEvery-th job of the stream, up to OracleMax of them, is
	// compared with the sequential oracle computed during set-up.
	OracleEvery int `json:"oracle_every"`
	OracleMax   int `json:"oracle_max"`
	// DecompJobs is how many jobs of the traced run are replayed layer by
	// layer for the per-job decomposition.
	DecompJobs int `json:"decomp_jobs"`
}

// Layer is one row of the prediction table: the per-layer metrics of a
// layer, the end-to-end metrics they should move, and the workloads where
// the layer carries weight (it should read near zero elsewhere).
type Layer struct {
	Layer   string   `json:"layer"`
	Metrics []string `json:"metrics"`
	Moves   []string `json:"moves"`
	HeavyOn []string `json:"heavy_on"`
}

// Spec is workloads.json. The keys the code does not read are for people:
// left_out records what the benchmark deliberately does not measure, a
// workload's open_loop_basis how its offered rate and latency limit were
// derived, and a layer's note how it is measured where that is not plain.
type Spec struct {
	Workloads []Workload `json:"workloads"`
	Layers    []Layer    `json:"layers"`
}

func loadSpec() (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(workloadsJSON, &s); err != nil {
		return nil, fmt.Errorf("perfbench: workloads.json: %w", err)
	}
	return &s, nil
}

func (s *Spec) workload(name string) (*Workload, error) {
	for i := range s.Workloads {
		if s.Workloads[i].Name == name {
			return &s.Workloads[i], nil
		}
	}
	return nil, fmt.Errorf("perfbench: unknown workload %q", name)
}

func (w *Workload) full() bool { return w.Scale == "full" }

// blockLen is the length of the stream's repeating unit, the closed loop's
// block: a pass over the pool where there is one (each pool tuple once),
// else a permutation block of the mix (each app once).
func (w *Workload) blockLen() int {
	if w.Pool > 0 {
		return w.Pool
	}
	return len(w.Apps)
}

func (w *Workload) latencyLimit() time.Duration {
	return time.Duration(w.LatencyLimitMs * float64(time.Millisecond))
}

// Tuple is one job's canonical input: the app, and the seed that drives
// its steal choices (distinct seeds are distinct cache keys).
type Tuple struct {
	App  string
	Seed uint64
}

// stream is the seeded job generator of one run. Job i is a pure function
// of (run seed, i), so a seed reproduces the same inputs and the oracle
// sample can be computed before the load starts.
type stream struct {
	w    *Workload
	seed int64
}

// Job-seed spaces: the measured stream, each set-up's warm-up jobs and the
// traced run's stream draw from disjoint ranges, so no job is ever a cache
// hit, and the traced run's first jobs are the same tuples on every run of
// a seed (its per-job counts repeat exactly).
const (
	spaceMeasured = 0
	spaceWarmup   = 1
	spaceTraced   = 2
)

func (s stream) tuple(space, i int) Tuple {
	if s.w.Pool > 0 && space != spaceWarmup {
		i %= s.w.Pool
		space = spaceMeasured
	}
	n := len(s.w.Apps)
	block := i / n
	perm := rand.New(rand.NewSource(s.seed*1_000_003 + int64(space)*7919 + int64(block))).Perm(n)
	return Tuple{
		App:  s.w.Apps[perm[i%n]],
		Seed: uint64(s.seed)<<28 | uint64(space)<<24 | uint64(i),
	}
}

// cursor hands out a stream's job indices in order, within the space the
// current phase draws from.
type cursor struct {
	space int // changed only between phases
	next  atomic.Int64
}

// take returns the next job's space and index.
func (c *cursor) take() (space, idx int) { return c.space, int(c.next.Add(1) - 1) }

// takeBlock returns the space and first index of the next whole block of
// n jobs, skipping the rest of a block an earlier
// take left partly used.
func (c *cursor) takeBlock(n int) (space, first int) {
	for {
		i := c.next.Load()
		f := (i + int64(n) - 1) / int64(n) * int64(n)
		if c.next.CompareAndSwap(i, f+int64(n)) {
			return c.space, int(f)
		}
	}
}

// restart makes the next phase draw from a space's first job on.
func (c *cursor) restart(space int) {
	c.space = space
	c.next.Store(0)
}

// oracleKey maps job i of a space to the oracle it is checked against, if
// it is in the checked sample. A pool is small, so every job is checked;
// otherwise the sample is drawn from the measured stream.
func (s stream) oracleKey(space, i int) (int, bool) {
	switch {
	case s.w.Pool > 0 && space != spaceWarmup:
		return i % s.w.Pool, true
	case space != spaceMeasured:
		return 0, false
	}
	return i, s.w.OracleEvery > 0 && i%s.w.OracleEvery == 0 && i/s.w.OracleEvery < s.w.OracleMax
}

// oracleIndices lists the measured-stream indices set-up computes oracles
// for.
func (s stream) oracleIndices() []int {
	var out []int
	if s.w.Pool > 0 {
		for i := 0; i < s.w.Pool; i++ {
			out = append(out, i)
		}
		return out
	}
	for k := 0; k < s.w.OracleMax; k++ {
		out = append(out, k*s.w.OracleEvery)
	}
	return out
}

// build constructs the tuple's workload, as the server and strun do.
func (w *Workload) build(t Tuple) (*apps.Workload, error) {
	sc := figures.Quick
	if w.full() {
		sc = figures.Full
	}
	return figures.Workload(t.App, sc, apps.ST)
}
