// Command perfbench is the repository benchmark. It drives one workload
// from a single process against the repository's public entry points — the
// server HTTP API of an in-process stserve-style server on loopback, and
// core.Run / core.RunProgram as strun and stbench call them — checks every
// job's output, and prints the metrics by name with their units. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set, measured with tracing
// off. With --trace 1 the run measures untraced, then traced, then replays
// a sample of the traced jobs layer by layer; it prints the per-layer set
// and writes the spans as a Chrome trace to
// .bench_build/perfbench-spans-<workload>-<seed>.json.
//
// The end-to-end metrics:
//
//   - setup_s: the median of three set-ups (server start, warm-up jobs, and
//     the sequential-oracle sample used for checking).
//   - jobs_per_s, vcycles_per_s: completed jobs and simulated work cycles
//     per host second in the closed loop, the median rate of the clients'
//     whole blocks (every app of the mix, or every pool tuple, once) times
//     the client count.
//   - p50_ms, tail_ms: job latency from the time the request was due, in
//     the open loop where the workload has one, else the closed loop's
//     whole blocks; the tail is the highest percentile with ten samples
//     beyond it.
//   - alloc_mb_per_job: Go heap bytes allocated per completed closed-loop
//     job (runtime/metrics), in 1e6 bytes.
//   - peak_rss_mb: the 90th percentile over 0.5 s windows of each
//     window's resident-set peak.
//
// error_frac and slo_miss_frac are printed beside them but kept out of the
// result line, since they read zero on a healthy run; a failure counts in
// "failed" and makes "correct" false.
//
// Usage, from the repository root:
//
//	python3 perfbench/run.py --workload serve-small --seed 1 --seconds 35 --trace 0
//
// run.py builds this package into .bench_build and runs it; --workload all
// runs every workload in turn. The workloads, their load shapes and the
// layer → end-to-end predictions live in workloads.json. A wrong output
// makes the run exit 1 after printing its result; a run that cannot
// complete exits 2 without printing one.
//
// Load is sized for a 2-CPU host: at most 2 client goroutines and
// connections, and 2 executor slots or host procs. The cluster layer and
// hostile traffic are not measured; workloads.json says why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// extra holds figures printed for people but kept out of the result
	// line: those that are zero on a healthy run (error_frac,
	// slo_miss_frac) and the tail's percentile and sample count.
	extra map[string]metric
	// why is the first failure's reason.
	why string
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload name from workloads.json, or all")
		seed     = flag.Int64("seed", 1, "input generator seed")
		seconds  = flag.Float64("seconds", 35, "measured seconds per workload")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || *seed < 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --seconds > 0, --trace 0 or 1, and --seed >= 0")
		return 2
	}
	// The environment overrides that flip engines and the JIT under an
	// unmodified caller would silently change what is measured.
	for _, k := range []string{"ST_ENGINE", "ST_JIT", "ST_HOSTPROCS"} {
		os.Unsetenv(k)
	}
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var ws []*Workload
	if *workload == "all" {
		for i := range spec.Workloads {
			ws = append(ws, &spec.Workloads[i])
		}
	} else {
		w, err := spec.workload(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		ws = append(ws, w)
	}

	total := report{Correct: true, Metrics: map[string]metric{}}
	for _, w := range ws {
		path := fmt.Sprintf(".bench_build/perfbench-spans-%s-%d.json", w.Name, *seed)
		rep, err := runWorkload(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
			return 2
		}
		printReport(w.Name, rep)
		if len(ws) == 1 {
			total = *rep
			break
		}
		total.Correct = total.Correct && rep.Correct
		total.Attempted += rep.Attempted
		total.Failed += rep.Failed
		for k, m := range rep.Metrics {
			total.Metrics[w.Name+"/"+k] = m
		}
	}
	line, err := json.Marshal(total)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(line))
	if !total.Correct {
		return 1
	}
	return 0
}

// printReport writes a workload's metrics as aligned name/value/unit rows.
func printReport(name string, r *report) {
	fmt.Printf("workload %s: attempted %d, failed %d, correct %t\n", name, r.Attempted, r.Failed, r.Correct)
	if r.why != "" {
		fmt.Printf("  first failure: %s\n", r.why)
	}
	rows := map[string]metric{}
	for k, m := range r.Metrics {
		rows[k] = m
	}
	for k, m := range r.extra {
		rows[k] = m
	}
	names := make([]string, 0, len(rows))
	for k := range rows {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-34s %14.6g %s\n", k, rows[k].Value, rows[k].Unit)
	}
}
