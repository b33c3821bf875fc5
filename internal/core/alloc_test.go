package core_test

import (
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
)

// TestRunAllocationCeiling bounds the host memory one run allocates. With
// demand-paged simulated memory a run pays for the pages it writes, not for
// the megaword heap and per-worker stacks it maps, so even a request for
// thousands of workers stays small. What remains per worker is one page
// table pointer per 512 mapped words; the throughput engine adds its chain
// write logs and, at 2000 workers, a conflict index and one private view
// table per host goroutine, each as long as the shared table.
func TestRunAllocationCeiling(t *testing.T) {
	if raceEnabled {
		// The race detector instruments allocation and makes sync.Pool
		// drop pooled items at random, so the figures mean nothing there.
		t.Skip("allocation ceilings are measured without -race")
	}
	for _, tc := range []struct {
		name    string
		workers int
		engine  core.Engine
		maxMB   float64
	}{
		{"fib15/4w/sequential", 4, core.EngineSequential, 1},
		{"fib15/4w/throughput", 4, core.EngineThroughput, 8},
		{"fib15/2000w/sequential", 2000, core.EngineSequential, 128},
		{"fib15/2000w/throughput", 2000, core.EngineThroughput, 256},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := core.Config{Mode: core.StackThreads, Workers: tc.workers, Engine: tc.engine, HostProcs: 2, Seed: 1}
			w := apps.Fib(15, apps.ST)
			if _, err := core.Run(w, cfg); err != nil { // warm the compile caches
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			res, err := core.Run(w, cfg)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			if res.RV != 610 {
				t.Fatalf("fib(15) = %d, want 610", res.RV)
			}
			mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
			t.Logf("%s: %.2f MB allocated", tc.name, mb)
			if mb > tc.maxMB {
				t.Fatalf("one run allocated %.2f MB, ceiling %.0f MB", mb, tc.maxMB)
			}
		})
	}
}
