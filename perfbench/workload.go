package main

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"time"
)

// setupReps is how many times a run sets up; setup_s is their median. Each
// repetition recomputes the oracle sample, and every repetition must agree
// with the first, so repeating also checks that runs are deterministic.
const setupReps = 3

// harness is a workload's path: served over HTTP or direct through core.
type harness interface {
	closedJob(tr *spanLog) closedJob
	takeBlock(n int) (space, first int)
	restart(space int)
	oracleSet() any
	close()
}

func (h *served) oracleSet() any { return h.oracles }
func (h *direct) oracleSet() any { return h.oracles }
func (h *direct) close()         {}

func start(w *Workload, st stream, rep int) (harness, error) {
	if w.Path == "served" {
		return startServed(w, st, rep)
	}
	return startDirect(w, st, rep)
}

// setUp sets up setupReps times, keeping the last harness, and returns the
// time each set-up took.
func setUp(w *Workload, st stream) (harness, []time.Duration, error) {
	var (
		h     harness
		times []time.Duration
		first any
	)
	for rep := 0; rep < setupReps; rep++ {
		if h != nil {
			h.close()
		}
		t0 := time.Now()
		var err error
		h, err = start(w, st, rep)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(t0))
		if rep == 0 {
			first = h.oracleSet()
		} else if !reflect.DeepEqual(first, h.oracleSet()) {
			h.close()
			return nil, nil, fmt.Errorf("perfbench: the oracle sample differs between set-ups: runs are not deterministic")
		}
	}
	return h, times, nil
}

// load is one measured stretch of a workload: an optional open loop, then
// a closed loop.
type load struct {
	open, closed *phase
}

func (l *load) recs() []jobRec {
	var out []jobRec
	if l.open != nil {
		out = append(out, l.open.recs...)
	}
	return append(out, l.closed.recs...)
}

// wall is the load's measured wall time.
func (l *load) wall() time.Duration {
	d := l.closed.wall
	if l.open != nil {
		d += l.open.wall
	}
	return d
}

// use is the load's resource growth.
func (l *load) use() usage {
	u := l.closed.use
	if o := l.open; o != nil {
		u.alloc += o.use.alloc
		u.gcCycles += o.use.gcCycles
		u.gcCPU += o.use.gcCPU
		u.availCPU += o.use.availCPU
		u.pause += o.use.pause
		u.procCPU += o.use.procCPU
	}
	return u
}

// latencySample is the jobs the latency figures describe: the open loop's
// where there is one (latency at a stated offered rate), else the closed
// loop's complete blocks.
func (l *load) latencySample() []jobRec {
	if l.open != nil {
		return l.open.recs
	}
	return l.closed.blockRecs()
}

// apply runs the workload's load shape for d.
func apply(w *Workload, h harness, d time.Duration, tr *spanLog) *load {
	ctx := context.Background()
	l := &load{}
	if s, ok := h.(*served); ok && w.Loop == "open+closed" {
		l.open = s.openLoop(ctx, d/2, tr)
		d -= d / 2
	}
	l.closed = closedLoop(ctx, w.Clients, w.blockLen(), d, h.takeBlock, h.closedJob(tr))
	return l
}

// runWorkload sets up, measures and reports one workload.
func runWorkload(w *Workload, seed int64, d time.Duration, traced bool, spansPath string) (*report, error) {
	st := stream{w: w, seed: seed}
	h, setups, err := setUp(w, st)
	if err != nil {
		return nil, err
	}
	defer h.close()
	runtime.GC() // start from a collected heap, not from set-up's garbage
	if traced {
		return traceWorkload(w, h, d, spansPath)
	}
	rss, err := startRSS()
	if err != nil {
		return nil, err
	}
	l := apply(w, h, d, nil)
	peak, top, err := rss.finish()
	if err != nil {
		return nil, err
	}
	r := endToEnd(w, l, setups, peak)
	r.extra["peak_rss_mb.max"] = metric{top / 1e6, "MB"}
	return r, nil
}

// endToEnd computes the user-visible metrics of an untraced load.
func endToEnd(w *Workload, l *load, setups []time.Duration, peak float64) *report {
	r := &report{Metrics: map[string]metric{}, extra: map[string]metric{}}
	recs := l.recs()
	r.Attempted = len(recs)
	r.Failed, r.why = failures(recs)
	r.Correct = r.Failed == 0

	setupS := make([]float64, len(setups))
	for i, s := range setups {
		setupS[i] = s.Seconds()
	}
	jps, vps := l.closed.throughput(w.Clients)
	lat := sortedMs(latencies(l.latencySample()))
	tailV, tailPct, n := tail(lat)
	r.Metrics["setup_s"] = metric{medianOf(setupS), "s"}
	r.Metrics["jobs_per_s"] = metric{jps, "1/s"}
	r.Metrics["vcycles_per_s"] = metric{vps, "1/s"}
	r.Metrics["p50_ms"] = metric{median(lat), "ms"}
	r.Metrics["tail_ms"] = metric{tailV, "ms"}
	r.Metrics["alloc_mb_per_job"] = metric{perJob(float64(l.closed.use.alloc)/1e6, len(l.closed.ok())), "MB"}
	r.Metrics["peak_rss_mb"] = metric{peak / 1e6, "MB"}

	r.extra["tail_pct"] = metric{tailPct, "%"}
	r.extra["tail_samples"] = metric{float64(n), "count"}
	r.extra["error_frac"] = metric{float64(r.Failed) / float64(max(r.Attempted, 1)), "frac"}
	slo := 0.0
	if l.open != nil {
		slo = sloMissFrac(l.open.recs, w.latencyLimit())
	}
	r.extra["slo_miss_frac"] = metric{slo, "frac"}
	return r
}
