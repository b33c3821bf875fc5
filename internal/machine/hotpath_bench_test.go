package machine_test

import (
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/obs"
)

// Hot-path benchmarks: host nanoseconds spent per simulated virtual cycle on
// the interpreter-dominated workloads (fib, cilksort, nqueens), plain, with
// the trace JIT (_jit) and with the virtual-time collector attached (_obs).
// This is the figure of merit for the interpreter dispatch path itself —
// virtual-time results are byte-identical no matter how fast the host loop
// runs, so any change here is pure host efficiency. The bench-hotpath CI step
// gates these against BENCH_BASELINE.json (with a wide tolerance for runner
// noise).
func benchHotPath(b *testing.B, jit, observe bool, mk func() *apps.Workload) {
	b.Helper()
	var hostNS, vcycles int64
	for i := 0; i < b.N; i++ {
		w := mk()
		cfg := core.Config{Mode: core.StackThreads, Workers: 1, Seed: 1, JIT: jit}
		if observe {
			cfg.Obs = obs.New()
		}
		t0 := time.Now()
		res, err := core.Run(w, cfg)
		host := time.Since(t0)
		if err != nil {
			b.Fatal(err)
		}
		hostNS += host.Nanoseconds()
		vcycles += res.WorkCycles
	}
	b.ReportMetric(float64(hostNS)/float64(vcycles), "host-ns/vcycle")
	// The same figure inverted (millions of virtual cycles per host second):
	// a benefit metric, so the bench-jit CI gate can express "at least 2x the
	// PR 5 interpreter baseline" as a benchjson -floor requirement.
	b.ReportMetric(1e3*float64(vcycles)/float64(hostNS), "Mvcycles/host-s")
}

func BenchmarkHotPath(b *testing.B) {
	for _, leg := range []struct {
		suffix       string
		jit, observe bool
	}{{"", false, false}, {"_jit", true, false}, {"_obs", false, true}} {
		b.Run("fib"+leg.suffix, func(b *testing.B) {
			benchHotPath(b, leg.jit, leg.observe, func() *apps.Workload { return apps.Fib(22, apps.ST) })
		})
		b.Run("cilksort"+leg.suffix, func(b *testing.B) {
			benchHotPath(b, leg.jit, leg.observe, func() *apps.Workload { return apps.Cilksort(6000, apps.ST, 11) })
		})
		b.Run("nqueens"+leg.suffix, func(b *testing.B) {
			benchHotPath(b, leg.jit, leg.observe, func() *apps.Workload { return apps.NQueens(8, apps.ST) })
		})
	}
}
