package sched_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/invariant"
	"repro/internal/obs"
	"repro/internal/sched"
)

// chaosSeeds returns the fault seeds the chaos matrix sweeps. PR CI runs a
// couple; the nightly fault sweep widens with ST_CHAOS_SEEDS=64.
func chaosSeeds() []uint64 {
	n := 2
	if v, err := strconv.Atoi(os.Getenv("ST_CHAOS_SEEDS")); err == nil && v > 0 {
		n = v
	}
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = uint64(i) + 1
	}
	return seeds
}

// chaosWorkloads is a spread of suspension behaviors: pure fork/join,
// deep suspension chains, irregular search, divide-and-conquer over heap
// data, and an iteration-structured stencil.
func chaosWorkloads() []func() *apps.Workload {
	return []func() *apps.Workload{
		func() *apps.Workload { return apps.Fib(12, apps.ST) },
		func() *apps.Workload { return apps.PingPong(12, apps.ST) },
		func() *apps.Workload { return apps.NQueens(6, apps.ST) },
		func() *apps.Workload { return apps.Cilksort(64, apps.ST, 5) },
		func() *apps.Workload { return apps.Heat(8, 8, 4, apps.ST, 2) },
	}
}

// runFaulted executes a workload under a fault plan with the auditor and
// the machine invariant checker enabled, on the given engine.
func runFaulted(t *testing.T, mk func() *apps.Workload, mode core.Mode, workers int,
	seed uint64, engine core.Engine, plan *fault.Plan) diffRun {
	t.Helper()
	w := mk()
	var events sched.EventLog
	var out bytes.Buffer
	collector := obs.New()
	res, err := core.Run(w, core.Config{
		Mode:            mode,
		Workers:         workers,
		Seed:            seed,
		Engine:          engine,
		HostProcs:       4,
		CheckInvariants: true,
		SegmentedStacks: workers > 1,
		Events:          &events,
		Obs:             collector,
		Out:             &out,
		Fault:           fault.New(plan),
		Audit:           invariant.New(64),
	})
	if err != nil {
		t.Fatalf("%s mode=%v workers=%d seed=%d engine=%v plan=%v: %v",
			w.Name, mode, workers, seed, engine, plan, err)
	}
	return diffRun{res: res, events: events.Sorted(), out: out.Bytes(), obs: obsDump(collector)}
}

// TestChaosDifferential is the capstone determinism claim for injected
// faults: a virtual fault plan is part of the run's input, so for every
// (workload, mode, plan, seed) both engines must produce byte-identical
// everything — Result, program output, event log, and full observability
// state — with the §3.2 auditor running and reporting no violation, and
// the workload's own Verify accepting the output. Runs are bounded by the
// scheduler's MaxCycles backstop and the per-test watchdog, so a faulted
// run can never hang silently.
func TestChaosDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix")
	}
	seeds := chaosSeeds()
	plans := fault.SimPlanNames()
	for _, planName := range plans {
		t.Run(planName, func(t *testing.T) {
			t.Parallel()
			for wi, mk := range chaosWorkloads() {
				for _, mode := range []core.Mode{core.StackThreads, core.Cilk} {
					for _, seed := range seeds {
						// Thin the matrix under the default seed count:
						// every plan still crosses every workload and mode.
						if len(seeds) <= 2 && wi%2 == int(seed)%2 {
							continue
						}
						plan, err := fault.PlanByName(planName)
						if err != nil {
							t.Fatal(err)
						}
						plan.Seed = seed
						ctx := fmt.Sprintf("%s mode=%v seed=%d", mk().Name, mode, seed)
						seq := runFaulted(t, mk, mode, 4, seed, core.EngineSequential, &plan)
						engine := core.EngineThroughput
						p := plan
						got := runFaulted(t, mk, mode, 4, seed, engine, &p)
						if !reflect.DeepEqual(seq.res, got.res) {
							t.Fatalf("%s: %v faulted Result diverged:\nseq: %+v\ngot: %+v", ctx, engine, seq.res, got.res)
						}
						if !reflect.DeepEqual(seq.events, got.events) {
							t.Fatalf("%s: %v faulted event log diverged (%d vs %d events)",
								ctx, engine, len(seq.events), len(got.events))
						}
						if !bytes.Equal(seq.out, got.out) {
							t.Fatalf("%s: %v faulted output diverged:\nseq: %q\ngot: %q", ctx, engine, seq.out, got.out)
						}
						if !bytes.Equal(seq.obs, got.obs) {
							t.Fatalf("%s: %v faulted obs snapshot diverged", ctx, engine)
						}
					}
				}
			}
		})
	}
}

// TestChaosReplayDeterminism reruns one faulted configuration several
// times per engine: the fault plan must replay exactly.
func TestChaosReplayDeterminism(t *testing.T) {
	plan, err := fault.PlanByName("mixed")
	if err != nil {
		t.Fatal(err)
	}
	plan.Seed = 7
	mk := func() *apps.Workload { return apps.NQueens(6, apps.ST) }
	for _, engine := range []core.Engine{core.EngineSequential, core.EngineThroughput} {
		var first diffRun
		for i := 0; i < 3; i++ {
			p := plan
			r := runFaulted(t, mk, core.StackThreads, 4, 5, engine, &p)
			if i == 0 {
				first = r
				continue
			}
			if !reflect.DeepEqual(first.res, r.res) || !reflect.DeepEqual(first.events, r.events) ||
				!bytes.Equal(first.obs, r.obs) {
				t.Fatalf("engine=%v: faulted run %d diverged from run 0", engine, i)
			}
		}
	}
}

// TestChaosActuallyInjects guards against the injector silently rotting:
// under the mixed plan a multi-worker run must record injections, and the
// faulted schedule must differ from the fault-free one.
func TestChaosActuallyInjects(t *testing.T) {
	plan, err := fault.PlanByName("mixed")
	if err != nil {
		t.Fatal(err)
	}
	plan.Seed = 3
	w := apps.Fib(14, apps.ST)
	run := func(f *fault.Injector) *core.Result {
		res, err := core.Run(apps.Fib(14, apps.ST), core.Config{
			Mode: core.StackThreads, Workers: 4, Seed: 1, Fault: f,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	inj := fault.New(&plan)
	faulted := run(inj)
	clean := run(nil)
	if inj.Total() == 0 {
		t.Fatalf("mixed plan injected nothing into %s", w.Name)
	}
	t.Logf("injected: %v", inj.Counts())
	if faulted.RV != clean.RV {
		t.Fatalf("faults corrupted the answer: %d vs %d", faulted.RV, clean.RV)
	}
	if faulted.WorkCycles == clean.WorkCycles && faulted.Steals == clean.Steals {
		t.Fatal("faulted schedule is identical to the fault-free one; injection is a no-op")
	}
}

// TestFaultPlanChangesScheduleNotAnswer: across every sim plan, the
// answer (RV) and the verified output must match the fault-free run —
// faults may only reshape the schedule.
func TestFaultPlanChangesScheduleNotAnswer(t *testing.T) {
	clean, err := core.Run(apps.NQueens(6, apps.ST), core.Config{
		Mode: core.StackThreads, Workers: 4, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range fault.SimPlanNames() {
		plan, err := fault.PlanByName(name)
		if err != nil {
			t.Fatal(err)
		}
		plan.Seed = 11
		res, err := core.Run(apps.NQueens(6, apps.ST), core.Config{
			Mode: core.StackThreads, Workers: 4, Seed: 2,
			Fault: fault.New(&plan), Audit: invariant.New(32),
		})
		if err != nil {
			t.Fatalf("plan %s: %v", name, err)
		}
		if res.RV != clean.RV {
			t.Fatalf("plan %s changed the answer: %d vs %d", name, res.RV, clean.RV)
		}
	}
}

// TestChaosBudgetAbortTyped: a faulted run that exceeds its work budget
// must fail with the typed budget error, not hang or return garbage.
func TestChaosBudgetAbortTyped(t *testing.T) {
	plan, err := fault.PlanByName("stalls")
	if err != nil {
		t.Fatal(err)
	}
	plan.Seed = 1
	_, err = core.Run(apps.Fib(16, apps.ST), core.Config{
		Mode: core.StackThreads, Workers: 4, Seed: 1,
		Fault: fault.New(&plan), MaxWorkCycles: 10_000,
	})
	if !errors.Is(err, core.ErrCycleBudget) {
		t.Fatalf("budget abort not typed: %v", err)
	}
}
