package core_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
)

// Pinned pre-instrumentation results (captured at the seed commit, before
// any observability hooks existed). A run with Obs == nil must still
// produce exactly these numbers: the disabled path charges no virtual
// cycles and executes no extra simulated instructions, so instrumentation
// is invisible to Figures 17-22.
var obsBaselines = []struct {
	name                           string
	rv, time, work, instrs, steals int64
}{
	{"fib-seq", 610, 54253, 54253, 40443, 0},
	{"fib-st4", 610, 40040, 159604, 111280, 26},
	{"fib-cilk4", 610, 42095, 168295, 109890, 19},
	{"cilksort-st8", 0, 16505, 122781, 30156, 19},
	{"nqueens-st4", 4, 8390, 33324, 17758, 19},
}

func obsBaselineRun(t *testing.T, name string, c *obs.Collector) *core.Result {
	t.Helper()
	var w *apps.Workload
	var cfg core.Config
	switch name {
	case "fib-seq":
		w, cfg = apps.Fib(15, apps.Seq), core.Config{Mode: core.Sequential}
	case "fib-st4":
		w, cfg = apps.Fib(15, apps.ST), core.Config{Mode: core.StackThreads, Workers: 4, Seed: 1}
	case "fib-cilk4":
		w, cfg = apps.Fib(15, apps.ST), core.Config{Mode: core.Cilk, Workers: 4, Seed: 1}
	case "cilksort-st8":
		w, cfg = apps.Cilksort(256, apps.ST, 7), core.Config{Mode: core.StackThreads, Workers: 8, Seed: 7}
	case "nqueens-st4":
		w, cfg = apps.NQueens(6, apps.ST), core.Config{Mode: core.StackThreads, Workers: 4, Seed: 3}
	default:
		t.Fatalf("unknown baseline %q", name)
	}
	cfg.Obs = c
	res, err := core.Run(w, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// TestObsDisabledPathFree pins the exact pre-instrumentation cycle and
// instruction counts and checks them twice: once with Obs == nil (the
// disabled path must match the historical baseline) and once with a live
// collector (collection must not perturb the simulation either).
func TestObsDisabledPathFree(t *testing.T) {
	for _, b := range obsBaselines {
		for _, enabled := range []bool{false, true} {
			var c *obs.Collector
			label := b.name + "/disabled"
			if enabled {
				c = obs.New()
				label = b.name + "/enabled"
			}
			res := obsBaselineRun(t, b.name, c)
			if res.RV != b.rv || res.Time != b.time || res.WorkCycles != b.work ||
				res.Instrs != b.instrs || res.Steals != b.steals {
				t.Errorf("%s: got rv=%d time=%d work=%d instrs=%d steals=%d, want rv=%d time=%d work=%d instrs=%d steals=%d",
					label, res.RV, res.Time, res.WorkCycles, res.Instrs, res.Steals,
					b.rv, b.time, b.work, b.instrs, b.steals)
			}
		}
	}
}

// TestObsPhaseSumsToWorkCycles checks the central accounting identity: the
// per-phase cycle attribution (user included, as the residual) sums exactly
// to Result.WorkCycles, in every mode.
func TestObsPhaseSumsToWorkCycles(t *testing.T) {
	for _, b := range obsBaselines {
		c := obs.New()
		res := obsBaselineRun(t, b.name, c)
		totals := c.PhaseTotals()
		var sum int64
		for _, v := range totals {
			sum += v
		}
		if sum != res.WorkCycles {
			t.Errorf("%s: phase cycles sum to %d, want WorkCycles %d (phases %v)",
				b.name, sum, res.WorkCycles, totals)
		}
		if c.TotalCycles() != res.WorkCycles {
			t.Errorf("%s: TotalCycles %d != WorkCycles %d", b.name, c.TotalCycles(), res.WorkCycles)
		}
		for p := obs.Phase(0); p < obs.NumPhases; p++ {
			if totals[p] < 0 {
				t.Errorf("%s: phase %v went negative: %d", b.name, p, totals[p])
			}
		}
	}
}

// obsSnapshot serializes everything the observability layer produced for a
// run into one byte blob for determinism comparison.
func obsSnapshot(t *testing.T, c *obs.Collector, log *sched.EventLog) []byte {
	t.Helper()
	var buf bytes.Buffer
	mj, err := c.Metrics.MarshalJSON()
	if err != nil {
		t.Fatalf("metrics marshal: %v", err)
	}
	buf.Write(mj)
	if err := c.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("chrome trace: %v", err)
	}
	c.WriteReport(&buf)
	c.WriteTop(&buf, 0)
	totals := c.PhaseTotals()
	b, _ := json.Marshal(totals)
	buf.Write(b)
	log.Dump(&buf)
	return buf.Bytes()
}

// TestObsDeterministicPerSeed extends the same-seed→same-cycles guarantee
// to the whole observability layer: two runs with equal Seed must produce
// byte-identical metrics snapshots, Chrome traces, reports, profiles and
// event logs.
func TestObsDeterministicPerSeed(t *testing.T) {
	run := func() []byte {
		c := obs.New()
		log := &sched.EventLog{}
		w := apps.Cilksort(256, apps.ST, 7)
		_, err := core.Run(w, core.Config{
			Mode: core.StackThreads, Workers: 8, Seed: 7, Obs: c, Events: log,
		})
		if err != nil {
			t.Fatal(err)
		}
		return obsSnapshot(t, c, log)
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same-seed obs snapshots differ:\n--- run 1 (%d bytes)\n%.2000s\n--- run 2 (%d bytes)\n%.2000s",
			len(a), a, len(b), b)
	}
	if len(a) == 0 {
		t.Fatal("empty obs snapshot")
	}
}
