package main

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/snapshot"
)

// traceWorkload is the --trace 1 run. It splits the measured time between
// an untraced load and a traced one (their throughput ratio is the tracing
// overhead), then replays the traced run's first jobs one layer at a time.
// Every per-layer metric is reported on every workload; a layer the
// workload's jobs do not cross reads zero.
func traceWorkload(w *Workload, h harness, d time.Duration, spansPath string) (*report, error) {
	untraced := apply(w, h, d/2, nil)

	tr := newSpanLog()
	sv, _ := h.(*served)
	cont := &sched.Contention{}
	if dh, ok := h.(*direct); ok {
		dh.cont = cont
		defer func() { dh.cont = nil }()
	}
	before := sv.counts()
	sv.capture(true)
	h.restart(spaceTraced)
	traced := apply(w, h, d/2, tr)
	after := sv.counts()
	payload, puts := sv.capture(false)

	r := &report{Metrics: map[string]metric{}}
	all := append(untraced.recs(), traced.recs()...)
	r.Attempted = len(all)
	r.Failed, r.why = failures(all)
	r.Correct = r.Failed == 0
	put := func(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }
	ok := okRecs(traced.recs())

	servedLayers(put, w, sv != nil, traced, before, after)
	healthLayers(put, w, untraced, traced, r)
	gcLayers(put, traced.use(), len(ok))
	specLayers(put, w, cont.Snapshot(), traced, len(ok))
	perCkpt, err := snapshotLayers(put, payload, after.store.since(before.store), len(ok), tr)
	if err != nil {
		return nil, err
	}

	// Decompose the traced run's first jobs, attaching each checkpoint put
	// to the execute span of the job that wrote it.
	ckpts := map[string]int{}
	execByKey := map[string]int64{}
	for _, rec := range ok {
		execByKey[rec.key] = rec.execSpan
	}
	for _, p := range puts {
		ckpts[p.key]++
		tr.add(execByKey[p.key], "snapshot.put", "", 0, p.start, p.end)
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i].idx < ok[j].idx })
	sample := ok[:min(len(ok), w.DecompJobs)]
	dc, err := decompose(w, sv != nil, sample, perCkpt, ckpts, tr)
	if err != nil {
		return nil, err
	}
	dc.report(put)

	if err := tr.writeChrome(spansPath); err != nil {
		return nil, err
	}
	fmt.Printf("spans: %s\n", spansPath)
	return r, nil
}

// servedLayers reports the client, admission, cache and executor layers
// from each traced job's client-side timing and the server's own spans.
func servedLayers(put func(string, float64, string), w *Workload, served bool, traced *load, before, after counters) {
	var self, wait, probe, exec []time.Duration
	var busy time.Duration
	refused := map[int]int{}
	for _, rec := range traced.recs() {
		refused[rec.status]++
		if rec.failed {
			continue
		}
		sp := spanDurs(rec)
		self = append(self, rec.done.Sub(rec.sent)-sp["enqueue-wait"]-sp["cache-probe"]-sp["execute"])
		wait = append(wait, sp["enqueue-wait"])
		probe = append(probe, sp["cache-probe"])
		exec = append(exec, sp["execute"])
		busy += sp["execute"]
	}
	slots := w.HostProcs
	if !served {
		self, slots = nil, 0 // a direct job has no HTTP hop and no executor
	}
	qw := sortedMs(wait)
	qwTail, _, _ := tail(qw)
	hits, misses := after.hits-before.hits, after.misses-before.misses
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}
	put("client.http_self_ms.p50", median(sortedMs(self)), "ms")
	put("server.queue_wait_ms.p50", median(qw), "ms")
	put("server.queue_wait_ms.tail", qwTail, "ms")
	put("server.rejected_429", float64(refused[429]), "count")
	put("server.shed_503", float64(refused[503]), "count")
	put("server.cache_probe_us.p50", 1000*median(sortedMs(probe)), "us")
	put("server.cache_hit_ratio", hitRatio, "frac")
	put("server.cache_evictions", float64(after.evictions-before.evictions), "count")
	put("server.execute_ms.p50", median(sortedMs(exec)), "ms")
	put("server.exec_busy_frac", busyFrac(busy, slots, traced.wall()), "frac")
}

// healthLayers reports how late the open-loop generator ran, the tracing
// overhead, the tail's percentile and sample count, and the failure and
// SLO-miss shares of the untraced load.
func healthLayers(put func(string, float64, string), w *Workload, untraced, traced *load, r *report) {
	late := 0.0
	if traced.open != nil {
		var lates []time.Duration
		for _, rec := range traced.open.recs {
			lates = append(lates, rec.late())
		}
		late, _, _ = tail(sortedMs(lates))
	}
	ju, _ := untraced.closed.throughput(w.Clients)
	jt, _ := traced.closed.throughput(w.Clients)
	overhead := 0.0
	if ju > 0 {
		overhead = 1 - jt/ju
	}
	_, pct, n := tail(sortedMs(latencies(untraced.latencySample())))
	slo := 0.0
	if untraced.open != nil {
		slo = sloMissFrac(untraced.open.recs, w.latencyLimit())
	}
	put("loadgen.late_ms.tail", late, "ms")
	put("trace.overhead_frac", overhead, "frac")
	put("latency.tail_pct", pct, "%")
	put("latency.tail_samples", float64(n), "count")
	put("error_frac", float64(r.Failed)/float64(max(r.Attempted, 1)), "frac")
	put("slo_miss_frac", slo, "frac")
}

// gcLayers reports the Go runtime's collector over the traced load.
func gcLayers(put func(string, float64, string), u usage, jobs int) {
	frac := 0.0
	if u.availCPU > 0 {
		frac = u.gcCPU / u.availCPU
	}
	put("gc.cycles_per_job", perJob(float64(u.gcCycles), jobs), "count/job")
	put("gc.pause_ms_total", ms(u.pause), "ms")
	put("gc.cpu_frac", frac, "frac")
}

// specLayers reports the throughput engine's counters over the traced
// load; the commit ratio's base is every pick resolved by commit or rerun.
func specLayers(put func(string, float64, string), w *Workload, cs sched.ContentionSnapshot, traced *load, jobs int) {
	ratio, base := commitRatio(cs.ChainCommits, cs.ChainReruns)
	cpuUtil := 0.0
	if w.Engine == "throughput" {
		cpuUtil = busyFrac(traced.use().procCPU, w.HostProcs, traced.wall())
	}
	put("spec.chain_segments", perJob(float64(cs.ChainSegments), jobs), "count/job")
	put("spec.discards", perJob(float64(cs.ChainDiscards), jobs), "count/job")
	put("spec.host_steals", perJob(float64(cs.HostSteals), jobs), "count/job")
	put("spec.commit_ratio", ratio, "frac")
	put("spec.commit_base", float64(base), "count")
	put("spec.cpu_util", cpuUtil, "frac")
}

// snapshotLayers reports the checkpoints the server wrote during the
// traced load and times the codec on the newest of them. It returns one
// checkpoint's encode-plus-put cost for the decomposition.
func snapshotLayers(put func(string, float64, string), payload []byte, sc storeCounts, jobs int, tr *spanLog) (time.Duration, error) {
	var perCkpt time.Duration
	var encMs, decMs, putMs, bytesPer float64
	if sc.puts > 0 && payload != nil {
		enc, dec, err := codecTimes(payload, tr)
		if err != nil {
			return 0, err
		}
		putAvg := sc.put / time.Duration(sc.puts)
		perCkpt = enc + putAvg
		encMs, decMs, putMs = ms(enc), ms(dec), ms(putAvg)
		bytesPer = float64(sc.bytes) / float64(sc.puts)
	}
	put("snapshot.checkpoints_per_job", perJob(float64(sc.puts), jobs), "count/job")
	put("snapshot.bytes_per_checkpoint", bytesPer, "B")
	put("snapshot.encode_ms", encMs, "ms")
	put("snapshot.decode_ms", decMs, "ms")
	put("snapshot.store_put_ms", putMs, "ms")
	return perCkpt, nil
}

func okRecs(recs []jobRec) []jobRec {
	var out []jobRec
	for _, r := range recs {
		if !r.failed {
			out = append(out, r)
		}
	}
	return out
}

// spanDurs sums a served job's server spans by name.
func spanDurs(r jobRec) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range r.spans {
		out[s.Name] += time.Duration(s.Dur) * time.Microsecond
	}
	return out
}

// codecRounds is how many times the codec is timed; the median is kept.
const codecRounds = 5

// codecTimes times snapshot.Decode on a checkpoint the server wrote and
// snapshot.Encode on the decoded value, and checks the round trip is
// byte-identical.
func codecTimes(payload []byte, tr *spanLog) (enc, dec time.Duration, err error) {
	var encs, decs []float64
	for i := 0; i < codecRounds; i++ {
		t0 := time.Now()
		snap, err := snapshot.Decode(payload)
		t1 := time.Now()
		if err != nil {
			return 0, 0, fmt.Errorf("perfbench: decode a served checkpoint: %w", err)
		}
		again, err := snapshot.Encode(snap)
		t2 := time.Now()
		if err != nil {
			return 0, 0, fmt.Errorf("perfbench: re-encode a served checkpoint: %w", err)
		}
		if !bytes.Equal(again, payload) {
			return 0, 0, errors.New("perfbench: a served checkpoint does not re-encode to the same bytes")
		}
		tr.add(0, "snapshot.decode", "codec", 200, t0, t1)
		tr.add(0, "snapshot.encode", "codec", 200, t1, t2)
		decs = append(decs, float64(t1.Sub(t0)))
		encs = append(encs, float64(t2.Sub(t1)))
	}
	return time.Duration(medianOf(encs)), time.Duration(medianOf(decs)), nil
}

// decomp is the per-job layer decomposition of a sample of traced jobs.
type decomp struct {
	jobs                              int
	compile, setup, run, export, snap time.Duration
	plainRun, obsRun, jitRun          time.Duration // run time net of setup, per tier
	measured                          time.Duration
	setupAlloc                        uint64
	vcycles, instrs, picks            int64
	suspends, restarts, exports       int64
	steals, attempts                  int64
	jitCompiled, jitDeopts            int64
}

func (d *decomp) add(o *decomp) {
	d.jobs += o.jobs
	d.compile += o.compile
	d.setup += o.setup
	d.run += o.run
	d.export += o.export
	d.snap += o.snap
	d.plainRun += o.plainRun
	d.obsRun += o.obsRun
	d.jitRun += o.jitRun
	d.measured += o.measured
	d.setupAlloc += o.setupAlloc
	d.vcycles += o.vcycles
	d.instrs += o.instrs
	d.picks += o.picks
	d.suspends += o.suspends
	d.restarts += o.restarts
	d.exports += o.exports
	d.steals += o.steals
	d.attempts += o.attempts
	d.jitCompiled += o.jitCompiled
	d.jitDeopts += o.jitDeopts
}

// decompose replays each sampled job through the layers it crossed, timing
// each public call: build and compile; core setup (RunProgram with a
// one-cycle budget, which returns right after core's prepare); the full
// RunProgram on the job's path; the collector's exports on the served
// path; the same run on the other interpreter tier (collector on for the
// direct path, off for the served one); and the same run with the trace
// JIT on and no collector, the third tier, which no workload's own path
// takes because core's default leaves the JIT off. measured is the served
// execute span, or the direct job's wall time, of the same jobs. Replays
// run as many at a time as the measured jobs did (executor slots, or
// clients), so both sides of the residual see the same contention for the
// host's CPUs.
func decompose(w *Workload, served bool, sample []jobRec, perCkpt time.Duration, ckpts map[string]int, tr *spanLog) (*decomp, error) {
	par := w.Clients
	if served {
		par = w.HostProcs
	}
	parts := make([]decomp, par)
	errs := make([]error, par)
	var wg sync.WaitGroup
	for g := 0; g < par; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(sample) && errs[g] == nil; i += par {
				errs[g] = parts[g].replay(w, served, sample[i], perCkpt*time.Duration(ckpts[sample[i].key]), tr, 100+g)
			}
		}(g)
	}
	wg.Wait()
	dc := &decomp{}
	for g := range parts {
		if errs[g] != nil {
			return nil, errs[g]
		}
		dc.add(&parts[g])
	}
	// Set-up allocation, one job at a time so no other replay's allocations
	// are counted.
	for _, rec := range sample {
		wl, prog, err := compile(w, rec.tup)
		if err != nil {
			return nil, err
		}
		a0 := readUsage().alloc
		if _, err := setupOnly(w, rec.tup, wl, prog); err != nil {
			return nil, err
		}
		dc.setupAlloc += readUsage().alloc - a0
	}
	return dc, nil
}

func compile(w *Workload, t Tuple) (*apps.Workload, *isa.Program, error) {
	wl, err := w.build(t)
	if err != nil {
		return nil, nil, err
	}
	prog, err := wl.Compile()
	if err != nil {
		return nil, nil, fmt.Errorf("perfbench: compile %s: %w", t.App, err)
	}
	return wl, prog, nil
}

// setupOnly runs core's set-up for a job and nothing else: RunProgram with
// a one-cycle budget returns the typed budget error right after prepare.
func setupOnly(w *Workload, t Tuple, wl *apps.Workload, prog *isa.Program) (time.Duration, error) {
	cfg := w.pathConfig(t.Seed)
	cfg.MaxWorkCycles = 1
	t0 := time.Now()
	_, err := core.RunProgram(prog, wl, cfg)
	d := time.Since(t0)
	if !errors.Is(err, core.ErrCycleBudget) {
		return 0, fmt.Errorf("perfbench: one-cycle budget run of %s: want the cycle-budget error, have %v", t.App, err)
	}
	return d, nil
}

// replay decomposes one job; snap is its checkpoints' share of codec and
// store time.
func (dc *decomp) replay(w *Workload, served bool, rec jobRec, snap time.Duration, tr *spanLog, tid int) error {
	job := "decomp-" + strconv.Itoa(rec.idx)
	t0 := time.Now()
	wl, prog, err := compile(w, rec.tup)
	if err != nil {
		return err
	}
	t1 := time.Now()
	setup, err := setupOnly(w, rec.tup, wl, prog)
	if err != nil {
		return err
	}
	s1 := time.Now()

	cfg := w.pathConfig(rec.tup.Seed)
	var col *obs.Collector
	if served {
		col = obs.New()
		cfg.Obs = col
	}
	res, err := core.RunProgram(prog, wl, cfg)
	r1 := time.Now()
	if err != nil {
		return fmt.Errorf("perfbench: replay %s: %w", rec.tup.App, err)
	}
	if res.WorkCycles != rec.workCycles {
		return fmt.Errorf("perfbench: replay of %s ran %d work cycles, the measured job %d", rec.tup.App, res.WorkCycles, rec.workCycles)
	}
	run := r1.Sub(s1) - setup
	if served {
		var buf bytes.Buffer
		if _, err := col.Metrics.MarshalJSON(); err != nil {
			return err
		}
		col.WriteReport(&buf)
		if err := col.WriteChromeTrace(&buf); err != nil {
			return err
		}
	}
	e1 := time.Now()

	alt := w.pathConfig(rec.tup.Seed)
	if !served {
		alt.Obs = obs.New()
	}
	if _, err := core.RunProgram(prog, wl, alt); err != nil {
		return fmt.Errorf("perfbench: replay %s on the other tier: %w", rec.tup.App, err)
	}
	a1 := time.Now()
	altRun := a1.Sub(e1) - setup

	jcont := &sched.Contention{}
	jit := w.pathConfig(rec.tup.Seed)
	jit.JIT, jit.Contention = true, jcont
	jres, err := core.RunProgram(prog, wl, jit)
	if err != nil {
		return fmt.Errorf("perfbench: replay %s with the trace JIT: %w", rec.tup.App, err)
	}
	end := time.Now()
	if oracleOf(jres) != oracleOf(res) || jres.Picks != res.Picks {
		return fmt.Errorf("perfbench: replay of %s with the trace JIT differs: have %+v, want %+v", rec.tup.App, oracleOf(jres), oracleOf(res))
	}
	jitRun := end.Sub(a1) - setup

	root := tr.add(0, "decomp", job, tid, t0, end)
	tr.add(root, "compile", job, tid, t0, t1)
	tr.add(root, "core.setup", job, tid, t1, s1)
	tr.add(root, "core.run", job, tid, s1, r1)
	if served {
		tr.add(root, "obs.export", job, tid, r1, e1)
	}
	tr.add(root, "core.run.other_tier", job, tid, e1, a1)
	tr.add(root, "core.run.jit", job, tid, a1, end)

	dc.jobs++
	dc.compile += t1.Sub(t0)
	dc.setup += setup
	dc.run += run
	dc.jitRun += jitRun
	dc.snap += snap
	if served {
		dc.export += e1.Sub(r1)
		dc.obsRun += run
		dc.plainRun += altRun
		dc.measured += spanDurs(rec)["execute"]
	} else {
		dc.plainRun += run
		dc.obsRun += altRun
		dc.measured += rec.done.Sub(rec.sent)
	}
	dc.vcycles += res.WorkCycles
	dc.instrs += res.Instrs
	dc.picks += res.Picks
	dc.steals += res.Steals
	dc.attempts += res.Attempts
	for _, st := range res.Stats {
		dc.suspends += st.Suspends
		dc.restarts += st.Restarts
		dc.exports += st.Exports
	}
	cs := jcont.Snapshot()
	dc.jitCompiled += cs.JITCompiled
	dc.jitDeopts += cs.JITDeopts
	return nil
}

// report emits the decomposition's per-layer metrics.
func (dc *decomp) report(put func(name string, v float64, unit string)) {
	pj := func(v float64) float64 { return perJob(v, dc.jobs) }
	nsPer := func(d time.Duration) float64 {
		if dc.vcycles == 0 {
			return 0
		}
		return float64(d) / float64(dc.vcycles)
	}
	put("compile.ms_per_job", pj(ms(dc.compile)), "ms")
	put("core.setup_ms_per_job", pj(ms(dc.setup)), "ms")
	put("core.setup_alloc_mb_per_job", pj(float64(dc.setupAlloc)/1e6), "MB")
	put("sched.run_ms_per_job", pj(ms(dc.run)), "ms")
	put("machine.host_ns_per_vcycle", nsPer(dc.plainRun), "ns/vcycle")
	put("machine.host_ns_per_vcycle_obs", nsPer(dc.obsRun), "ns/vcycle")
	put("machine.host_ns_per_vcycle_jit", nsPer(dc.jitRun), "ns/vcycle")
	put("machine.vcycles_per_job", pj(float64(dc.vcycles)), "count/job")
	put("machine.instrs_per_job", pj(float64(dc.instrs)), "count/job")
	put("sched.picks_per_job", pj(float64(dc.picks)), "count/job")
	put("machine.jit_compiled", pj(float64(dc.jitCompiled)), "count/job")
	put("machine.jit_deopts", pj(float64(dc.jitDeopts)), "count/job")
	put("runtime.suspends", pj(float64(dc.suspends)), "count/job")
	put("runtime.restarts", pj(float64(dc.restarts)), "count/job")
	put("runtime.steals", pj(float64(dc.steals)), "count/job")
	put("runtime.steal_attempts", pj(float64(dc.attempts)), "count/job")
	put("runtime.exports", pj(float64(dc.exports)), "count/job")
	put("obs.export_ms_per_job", pj(ms(dc.export)), "ms")
	put("decomp.jobs", float64(dc.jobs), "count")
	put("decomp.residual_frac", residualFrac(dc.measured, dc.compile+dc.setup+dc.run+dc.export+dc.snap), "frac")
}
