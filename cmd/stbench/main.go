// Command stbench regenerates the paper's evaluation figures (Section 8).
//
// Usage:
//
//	stbench -fig 17          # SPEC overhead on the SPARC model
//	stbench -fig 21 -full    # uniprocessor comparison at paper-scale sizes
//	stbench -fig 22 -bench fib,cilksort
//	stbench -all             # everything, quick scale
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/figures"
	"repro/internal/hostpar"
	"repro/internal/isa"
)

// runHotPath measures raw interpreter speed — host nanoseconds per simulated
// cycle — on the same three single-worker workloads the BenchmarkHotPath
// micro-benchmarks and the bench-hotpath CI gate use (see DESIGN.md §14).
func runHotPath(jit bool) error {
	const rounds = 3
	for _, wl := range []*apps.Workload{
		apps.Fib(22, apps.ST),
		apps.Cilksort(6000, apps.ST, 11),
		apps.NQueens(8, apps.ST),
	} {
		var hostNS, vcycles int64
		for i := 0; i < rounds; i++ {
			t0 := time.Now()
			res, err := core.Run(wl, core.Config{Mode: core.StackThreads, Workers: 1, Seed: 1, JIT: jit})
			if err != nil {
				return fmt.Errorf("%s: %w", wl.Name, err)
			}
			hostNS += time.Since(t0).Nanoseconds()
			vcycles += res.WorkCycles
		}
		fmt.Printf("%-10s %7.2f host-ns/vcycle  (%d vcycles/run, %d rounds)\n",
			wl.Name, float64(hostNS)/float64(vcycles), vcycles/rounds, rounds)
	}
	return nil
}

func main() {
	var (
		fig       = flag.Int("fig", 0, "figure to regenerate (17, 18, 19, 20, 21, 22)")
		all       = flag.Bool("all", false, "regenerate every figure")
		full      = flag.Bool("full", false, "paper-scale inputs (slow); default quick")
		bench     = flag.String("bench", "", "comma-separated benchmark subset for -fig 21/22")
		ablate    = flag.Bool("ablate", false, "run the design-choice ablations instead of a figure")
		engine    = flag.String("engine", "default", "host engine per run: sequential or throughput")
		hostprocs = flag.Int("hostprocs", 0, "host cores for fanning data points and the throughput engine (0 = all)")
		maxcycles = flag.Int64("maxcycles", 0, "per-run total work-cycle budget (0 = unlimited)")
		audit     = flag.Int64("audit-every", 0, "audit the paper's 3.2 invariants every N scheduler picks inside each run (0 = off)")
		hotpath   = flag.Bool("hotpath", false, "measure interpreter speed (host-ns per virtual cycle) on the hot-path trio")
		jit       = flag.Bool("jit", false, "enable the interpreter trace JIT per run (identical results; host speed only)")
	)
	flag.Parse()

	if *hotpath {
		if err := runHotPath(*jit); err != nil {
			fmt.Fprintln(os.Stderr, "stbench:", err)
			os.Exit(1)
		}
		return
	}

	eng, err := core.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "stbench:", err)
		os.Exit(2)
	}
	opts := figures.Opts{HostProcs: *hostprocs, Engine: eng, MaxWorkCycles: *maxcycles, AuditEvery: *audit, JIT: *jit}

	sc := figures.Quick
	if *full {
		sc = figures.Full
	}
	var benches []string
	if *bench != "" {
		benches = strings.Split(*bench, ",")
	}

	run := func(f int) error {
		t0 := time.Now()
		defer func() {
			fmt.Printf("[figure %d: %.2fs host wall-clock on %d cores, engine %v]\n",
				f, time.Since(t0).Seconds(), hostpar.Procs(*hostprocs), eng)
		}()
		switch f {
		case 17, 18, 19, 20:
			cpuName := map[int]string{17: "sparc", 18: "x86", 19: "mips", 20: "alpha"}[f]
			_, err := figures.SpecOverheadsWith(os.Stdout, isa.CostModelByName(cpuName), opts)
			return err
		case 21:
			_, err := figures.UniprocessorWith(os.Stdout, sc, opts)
			return err
		case 22:
			figures.Table2(os.Stdout)
			_, err := figures.ScalingWith(os.Stdout, sc, benches, opts)
			return err
		}
		return fmt.Errorf("unknown figure %d", f)
	}

	if *ablate {
		if _, err := figures.AblateCriteria(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "stbench:", err)
			os.Exit(1)
		}
		fmt.Println()
		if _, err := figures.AblateStealPolicy(os.Stdout, sc); err != nil {
			fmt.Fprintln(os.Stderr, "stbench:", err)
			os.Exit(1)
		}
		fmt.Println()
		if _, err := figures.SpaceBound(os.Stdout, sc); err != nil {
			fmt.Fprintln(os.Stderr, "stbench:", err)
			os.Exit(1)
		}
		fmt.Println()
		if _, err := figures.AblateSegmentedStacks(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "stbench:", err)
			os.Exit(1)
		}
		return
	}

	var figs []int
	switch {
	case *all:
		figs = []int{17, 18, 19, 20, 21, 22}
	case *fig != 0:
		figs = []int{*fig}
	default:
		flag.Usage()
		os.Exit(2)
	}
	for _, f := range figs {
		if err := run(f); err != nil {
			fmt.Fprintln(os.Stderr, "stbench:", err)
			os.Exit(1)
		}
		fmt.Println()
	}
}
