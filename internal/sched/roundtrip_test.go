package sched_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/randprog"
	"repro/internal/sched"
	"repro/internal/snapshot"
)

// Round-trip property: a run captured at ANY pick boundary, serialized
// through the snapshot codec, deserialized and resumed — on any engine —
// must be byte-identical in every observable dimension (Result, program
// output, event log, obs state) to the undisturbed run. This is what makes
// continuations safe to checkpoint to disk and ship between cluster nodes.

// rtConfig builds the exact config the differential harness uses, so
// round-trip comparisons hold to the same byte-identity standard.
func rtConfig(mode core.Mode, workers int, seed uint64, engine core.Engine,
	events *sched.EventLog, collector *obs.Collector, out *bytes.Buffer) core.Config {
	return core.Config{
		Mode:            mode,
		Workers:         workers,
		Seed:            seed,
		Engine:          engine,
		HostProcs:       4,
		CheckInvariants: true,
		SegmentedStacks: workers > 1,
		Events:          events,
		Obs:             collector,
		Out:             out,
		Audit:           invariant.New(64),
	}
}

// captureAt runs the workload until pick boundary `pick`, yields there, and
// returns the continuation with its partial artifacts as encoded snapshot
// bytes — the full serialize leg.
func captureAt(t *testing.T, mk func() *apps.Workload, mode core.Mode, workers int,
	seed uint64, engine core.Engine, pick int64) []byte {
	t.Helper()
	w := mk()
	var events sched.EventLog
	var out bytes.Buffer
	collector := obs.New()
	cfg := rtConfig(mode, workers, seed, engine, &events, collector, &out)
	cfg.Checkpoint = &sched.Checkpoint{YieldAtPick: pick}
	_, err := core.Run(w, cfg)
	var ye *sched.YieldError
	if !errors.As(err, &ye) {
		t.Fatalf("%s pick=%d engine=%v: expected a yield, got err=%v", w.Name, pick, engine, err)
	}
	enc, err := snapshot.Encode(&snapshot.Snapshot{
		Key:     fmt.Sprintf("%s|mode=%v|workers=%d|seed=%d", w.Name, mode, workers, seed),
		TraceID: "rt-test",
		Mach:    ye.Boundary.Mach,
		Sched:   ye.Boundary.Sched,
		Fault:   ye.Boundary.Fault,
		Obs:     collector.ExportState(),
		Events:  events.Events,
		Out:     bytes.Clone(out.Bytes()),
	})
	if err != nil {
		t.Fatalf("%s pick=%d: encode: %v", w.Name, pick, err)
	}
	return enc
}

// resumeFrom decodes an encoded snapshot and resumes it under `engine`,
// returning the finished run's complete observable state.
func resumeFrom(t *testing.T, mk func() *apps.Workload, mode core.Mode, workers int,
	seed uint64, engine core.Engine, enc []byte) diffRun {
	t.Helper()
	snap, err := snapshot.Decode(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	w := mk()
	events := sched.EventLog{Events: snap.Events}
	var out bytes.Buffer
	out.Write(snap.Out)
	collector := obs.New()
	if snap.Obs != nil {
		if err := collector.ImportState(snap.Obs); err != nil {
			t.Fatalf("obs import: %v", err)
		}
	}
	cfg := rtConfig(mode, workers, seed, engine, &events, collector, &out)
	res, err := core.Resume(w, cfg, &sched.Boundary{Mach: snap.Mach, Sched: snap.Sched, Fault: snap.Fault})
	if err != nil {
		t.Fatalf("%s engine=%v: resume: %v", w.Name, engine, err)
	}
	return diffRun{res: res, events: events.Sorted(), out: out.Bytes(), obs: obsDump(collector)}
}

var rtEngines = []core.Engine{core.EngineSequential, core.EngineThroughput}

// TestRoundTripEveryBoundary sweeps every pick boundary of one small run:
// capture → encode → decode → restore → run must reproduce the undisturbed
// bytes no matter where the run was cut.
func TestRoundTripEveryBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("round-trip sweep")
	}
	mk := func() *apps.Workload { return apps.Fib(8, apps.ST) }
	const mode, workers, seed = core.StackThreads, 2, 1
	undisturbed := runEngine(t, mk, mode, workers, seed, core.EngineSequential)
	picks := undisturbed.res.Picks
	if picks < 2 {
		t.Fatalf("run too small to exercise boundaries: %d picks", picks)
	}
	step := int64(1)
	if picks > 120 {
		step = picks / 120
	}
	for pick := int64(1); pick <= picks; pick += step {
		enc := captureAt(t, mk, mode, workers, seed, core.EngineSequential, pick)
		got := resumeFrom(t, mk, mode, workers, seed, core.EngineSequential, enc)
		diffCompare(t, fmt.Sprintf("fib pick=%d/%d", pick, picks), core.EngineSequential, undisturbed, got)
	}
}

// TestRoundTripMatrix extends the differential matrix through the codec:
// workloads × modes × worker counts × seeds, captured at pseudo-random pick
// boundaries, crossing capture and resume engines (any engine resumes any
// engine's capture).
func TestRoundTripMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("round-trip matrix")
	}
	workloads := []func() *apps.Workload{
		func() *apps.Workload { return apps.Fib(12, apps.ST) },
		func() *apps.Workload { return apps.NQueens(6, apps.ST) },
		func() *apps.Workload { return apps.Staircase(6, 8) },
		func() *apps.Workload { return apps.Cilksort(64, apps.ST, 5) },
		func() *apps.Workload { return apps.Heat(8, 8, 4, apps.ST, 2) },
	}
	seeds := diffSeeds()
	tuple := 0
	for wi, mk := range workloads {
		name := mk().Name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, mode := range []core.Mode{core.StackThreads, core.Cilk} {
				for _, workers := range []int{2, 4} {
					for _, seed := range seeds {
						tuple++
						undisturbed := runEngine(t, mk, mode, workers, seed, core.EngineSequential)
						picks := undisturbed.res.Picks
						if picks < 1 {
							t.Fatalf("%s: no pick boundaries", name)
						}
						rng := rand.New(rand.NewSource(int64(seed)<<8 | int64(wi)))
						// Rotate engine pairs across tuples so the full
						// capture×resume cross product is covered without
						// running every pair on every tuple.
						n := len(rtEngines)
						capEng := rtEngines[tuple%n]
						resEng := rtEngines[(tuple/n+tuple)%n]
						for _, pair := range [][2]core.Engine{
							{core.EngineSequential, core.EngineSequential},
							{capEng, resEng},
						} {
							pick := 1 + rng.Int63n(picks)
							ctx := fmt.Sprintf("mode=%v workers=%d seed=%d pick=%d/%d cap=%v",
								mode, workers, seed, pick, picks, pair[0])
							enc := captureAt(t, mk, mode, workers, seed, pair[0], pick)
							got := resumeFrom(t, mk, mode, workers, seed, pair[1], enc)
							diffCompare(t, ctx, pair[1], undisturbed, got)
						}
					}
				}
			}
		})
	}
}

// TestRoundTripRandprog runs generated random fork trees — forced blocking
// suspensions, random fan-out and compute — through the same property.
func TestRoundTripRandprog(t *testing.T) {
	if testing.Short() {
		t.Skip("round-trip fuzz")
	}
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		root, _ := randprog.Generate(rng, 30)
		want := randprog.Expected(root)
		mk := func() *apps.Workload { return randprog.Workload(root) }
		workers := 2 + int(seed%3)
		undisturbed := runEngine(t, mk, core.StackThreads, workers, uint64(seed), core.EngineSequential)
		if undisturbed.res.RV != want {
			t.Fatalf("seed %d: undisturbed acc=%d want %d", seed, undisturbed.res.RV, want)
		}
		picks := undisturbed.res.Picks
		for i := 0; i < 2; i++ {
			pick := 1 + rng.Int63n(picks)
			capEng := rtEngines[int(seed+int64(i))%len(rtEngines)]
			resEng := rtEngines[int(seed+int64(i)+1)%len(rtEngines)]
			ctx := fmt.Sprintf("randtree seed=%d workers=%d pick=%d/%d cap=%v", seed, workers, pick, picks, capEng)
			enc := captureAt(t, mk, core.StackThreads, workers, uint64(seed), capEng, pick)
			got := resumeFrom(t, mk, core.StackThreads, workers, uint64(seed), resEng, enc)
			diffCompare(t, ctx, resEng, undisturbed, got)
		}
	}
}

// TestPeriodicCheckpointResume exercises the serving-path shape: a run
// checkpoints itself every N cycles through a sink (as stserve will), and a
// later process resumes from any stored checkpoint to the identical result.
func TestPeriodicCheckpointResume(t *testing.T) {
	if testing.Short() {
		t.Skip("round-trip periodic")
	}
	mk := func() *apps.Workload { return apps.Fib(14, apps.ST) }
	const mode, workers, seed = core.StackThreads, 4, 3
	undisturbed := runEngine(t, mk, mode, workers, seed, core.EngineThroughput)

	// Checkpointing run: the sink serializes each boundary together with the
	// partial artifacts at that instant, exactly as the server's sink does.
	w := mk()
	var events sched.EventLog
	var out bytes.Buffer
	collector := obs.New()
	cfg := rtConfig(mode, workers, seed, core.EngineThroughput, &events, collector, &out)
	var stored [][]byte
	cfg.Checkpoint = &sched.Checkpoint{
		EveryCycles: undisturbed.res.WorkCycles / 5,
		Sink: func(b *sched.Boundary) error {
			enc, err := snapshot.Encode(&snapshot.Snapshot{
				Key:    "periodic",
				Mach:   b.Mach,
				Sched:  b.Sched,
				Fault:  b.Fault,
				Obs:    collector.ExportState(),
				Events: append([]sched.TraceEvent(nil), events.Events...),
				Out:    bytes.Clone(out.Bytes()),
			})
			if err != nil {
				return err
			}
			stored = append(stored, enc)
			return nil
		},
	}
	res, err := core.Run(w, cfg)
	if err != nil {
		t.Fatalf("checkpointing run: %v", err)
	}
	// The checkpointing run itself must be byte-identical to the undisturbed
	// one — capture is pure observation.
	withCkpt := diffRun{res: res, events: events.Sorted(), out: out.Bytes(), obs: obsDump(collector)}
	diffCompare(t, "checkpointing run", core.EngineThroughput, undisturbed, withCkpt)
	if len(stored) < 2 {
		t.Fatalf("expected several periodic checkpoints, got %d", len(stored))
	}
	for i, enc := range stored {
		got := resumeFrom(t, mk, mode, workers, seed, rtEngines[i%len(rtEngines)], enc)
		diffCompare(t, fmt.Sprintf("resume from checkpoint %d/%d", i+1, len(stored)),
			rtEngines[i%len(rtEngines)], undisturbed, got)
	}
}

// TestRoundTripJITCross extends the round-trip property across the trace
// JIT: a run captured mid-flight with the JIT on must resume byte-identically
// with the JIT off, and vice versa. The configs here deliberately omit the
// observability collector — per-worker obs hooks gate the JIT off entirely
// (DESIGN.md §19), so the stock harness would never execute a compiled
// trace — and compare Result, the sorted event log and program output,
// which is everything an obs-free run produces. This is what lets cluster
// nodes with different ST_JIT settings exchange checkpoints freely.
func TestRoundTripJITCross(t *testing.T) {
	mk := func() *apps.Workload { return apps.Fib(12, apps.ST) }
	const mode, workers, seed = core.StackThreads, 2, uint64(1)

	mkCfg := func(jit bool, events *sched.EventLog, out *bytes.Buffer) core.Config {
		return core.Config{
			Mode: mode, Workers: workers, Seed: seed,
			Engine: core.EngineSequential, HostProcs: 4,
			CheckInvariants: true, SegmentedStacks: true,
			JIT: jit, Events: events, Out: out,
		}
	}

	type artifacts struct {
		res    *core.Result
		events []sched.TraceEvent
		out    []byte
	}
	runWhole := func(jit bool) artifacts {
		var events sched.EventLog
		var out bytes.Buffer
		res, err := core.Run(mk(), mkCfg(jit, &events, &out))
		if err != nil {
			t.Fatalf("jit=%t: %v", jit, err)
		}
		return artifacts{res: res, events: events.Sorted(), out: out.Bytes()}
	}
	capture := func(jit bool, pick int64) []byte {
		var events sched.EventLog
		var out bytes.Buffer
		cfg := mkCfg(jit, &events, &out)
		cfg.Checkpoint = &sched.Checkpoint{YieldAtPick: pick}
		_, err := core.Run(mk(), cfg)
		var ye *sched.YieldError
		if !errors.As(err, &ye) {
			t.Fatalf("capture jit=%t pick=%d: expected a yield, got %v", jit, pick, err)
		}
		enc, err := snapshot.Encode(&snapshot.Snapshot{
			Key: "jit-rt", TraceID: "jit-rt",
			Mach: ye.Boundary.Mach, Sched: ye.Boundary.Sched, Fault: ye.Boundary.Fault,
			Events: events.Events, Out: bytes.Clone(out.Bytes()),
		})
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		return enc
	}
	resume := func(jit bool, enc []byte) artifacts {
		snap, err := snapshot.Decode(enc)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		events := sched.EventLog{Events: snap.Events}
		var out bytes.Buffer
		out.Write(snap.Out)
		cfg := mkCfg(jit, &events, &out)
		res, err := core.Resume(mk(), cfg, &sched.Boundary{Mach: snap.Mach, Sched: snap.Sched, Fault: snap.Fault})
		if err != nil {
			t.Fatalf("resume jit=%t: %v", jit, err)
		}
		return artifacts{res: res, events: events.Sorted(), out: out.Bytes()}
	}
	compare := func(ctx string, want, got artifacts) {
		t.Helper()
		if !reflect.DeepEqual(want.res, got.res) {
			t.Fatalf("%s: Result diverged:\nwant: %+v\ngot:  %+v", ctx, want.res, got.res)
		}
		if !reflect.DeepEqual(want.events, got.events) {
			t.Fatalf("%s: event log diverged (%d vs %d events)", ctx, len(want.events), len(got.events))
		}
		if !bytes.Equal(want.out, got.out) {
			t.Fatalf("%s: program output diverged:\nwant: %q\ngot:  %q", ctx, want.out, got.out)
		}
	}

	undisturbed := runWhole(false)
	compare("whole run jit=on vs off", undisturbed, runWhole(true))
	picks := undisturbed.res.Picks
	if picks < 8 {
		t.Fatalf("run too small to cut: %d picks", picks)
	}
	// Cut points spread across the run, including late ones where traces
	// are certainly hot and compiled on the capturing side.
	for _, pick := range []int64{2, picks / 4, picks / 2, picks - 1} {
		for _, leg := range []struct {
			name           string
			capJIT, resJIT bool
		}{
			{"capture-jit/resume-plain", true, false},
			{"capture-plain/resume-jit", false, true},
			{"capture-jit/resume-jit", true, true},
		} {
			enc := capture(leg.capJIT, pick)
			got := resume(leg.resJIT, enc)
			compare(fmt.Sprintf("%s pick=%d/%d", leg.name, pick, picks), undisturbed, got)
		}
	}
}
