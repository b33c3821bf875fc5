package main

import (
	"context"
	"fmt"
	"reflect"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

// direct runs jobs through core.Run the way strun and stbench call it:
// build the workload, compile it, run it with the workload's engine and no
// collector attached.
type direct struct {
	w       *Workload
	st      stream
	oracles map[int]*core.Result
	cursor
	// cont, when non-nil, is attached to every run (traced runs only).
	cont *sched.Contention
}

// pathConfig is the job's configuration on the direct path: mode st and
// core's defaults (sequential engine, JIT as defaulted, no collector)
// unless the workload names the throughput engine. The served path's
// requests carry the same mode and workers.
func (w *Workload) pathConfig(seed uint64) core.Config {
	cfg := core.Config{Mode: core.StackThreads, Workers: w.Workers, Seed: seed}
	if w.Engine == "throughput" {
		cfg.Engine = core.EngineThroughput
		cfg.HostProcs = w.HostProcs
	}
	return cfg
}

// startDirect is one set-up: run the warm-up jobs and compute the oracle
// sample on the sequential engine.
func startDirect(w *Workload, st stream, rep int) (*direct, error) {
	h := &direct{w: w, st: st}
	for k := 0; k < w.WarmupJobs; k++ {
		if r := h.run(spaceWarmup, rep*w.WarmupJobs+k, 0, nil); r.failed {
			t := st.tuple(spaceWarmup, rep*w.WarmupJobs+k)
			return nil, fmt.Errorf("perfbench: warm-up job %s: %s", t.App, r.why)
		}
	}
	h.oracles = make(map[int]*core.Result)
	for _, i := range st.oracleIndices() {
		res, err := runOracle(w, st.tuple(spaceMeasured, i))
		if err != nil {
			return nil, err
		}
		h.oracles[i] = res
	}
	return h, nil
}

// run executes one job and checks it: the workload's Verify runs inside
// core, and a sampled job must equal its oracle field for field, per-worker
// stats included.
func (h *direct) run(space, idx, client int, tr *spanLog) jobRec {
	t := h.st.tuple(space, idx)
	r := jobRec{idx: idx, tup: t, client: client, sent: time.Now()}
	r.due = r.sent
	res, err := h.exec(t, &r)
	r.done = time.Now()
	switch {
	case err != nil:
		r.failed, r.why = true, err.Error()
	default:
		r.workCycles = res.WorkCycles
		if k, ok := h.st.oracleKey(space, idx); ok {
			if want := h.oracles[k]; !reflect.DeepEqual(res, want) {
				r.failed, r.why = true, fmt.Sprintf("%s seed %d: result differs from the sequential oracle (rv %d, want %d; work cycles %d, want %d)",
					t.App, t.Seed, res.RV, want.RV, res.WorkCycles, want.WorkCycles)
			}
		}
	}
	tr.direct(r)
	return r
}

// exec is core.Run split at its compile step, so a traced run can tell
// compile time from run time.
func (h *direct) exec(t Tuple, r *jobRec) (*core.Result, error) {
	wl, err := h.w.build(t)
	if err != nil {
		return nil, err
	}
	prog, err := wl.Compile()
	r.compiled = time.Now()
	if err != nil {
		return nil, fmt.Errorf("core: compile %s/%s: %w", wl.Name, wl.Variant, err)
	}
	cfg := h.w.pathConfig(t.Seed)
	cfg.Contention = h.cont
	return core.RunProgram(prog, wl, cfg)
}

// closedJob is the closed-loop step.
func (h *direct) closedJob(tr *spanLog) closedJob {
	return func(_ context.Context, client, space, idx int) jobRec {
		return h.run(space, idx, client, tr)
	}
}
