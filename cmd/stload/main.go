// Command stload is a closed-loop load generator for stserve: at each
// offered concurrency level it keeps that many synchronous requests in
// flight (each client submits with "wait":true and immediately re-submits
// when the response lands), then reports throughput and latency
// percentiles per level.
//
// Requests go through internal/client, so backpressure (429) and load
// shedding (503) are retried with exponential backoff and jitter, always
// honoring the server's Retry-After header as the floor on the wait.
//
// Usage:
//
//	stload -addr http://127.0.0.1:8135 -app fib -workers 8 -c 1,2,4 -n 100
//	stload -app fib,cilksort -seeds 0 -n 200      # mixed, all-cold workload
//	stload -app fib -seeds 1 -n 200               # one tuple: cache-hit path
//	stload -app fib -n 20 -json                   # machine-readable report
//	stload -app fib -n 20 -trace out.json         # two-clock Chrome trace
//	stload -targets host1:8135,host2:8135,host3:8135 -n 300
//	                                              # multi-node cluster load
//
// -targets spreads the load across several stserve nodes round-robin, with
// per-node latency/throughput breakdowns in the report. A request whose
// node is unreachable fails over to the next target, so a node killed
// mid-run costs a retry, not a lost request. Targets may be bare
// host:port (http:// is assumed).
//
// -seeds S cycles seeds 1..S across requests (S=1 repeats one canonical
// tuple, measuring the cache-hit path; S=0 gives every request a unique
// seed, measuring cold runs).
//
// -trace writes a single Chrome trace_event file joining both clock
// domains: the host wall-clock serving spans (client request/backoff, and
// the server's enqueue-wait/cache-probe/execute spans returned on each
// job) on pid 0, and the deterministic virtual-time machine trace of the
// first -tracejobs jobs per level on pid 1+, correlated by trace_id.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/obs"
)

type jobView struct {
	ID        string          `json:"id"`
	TraceID   string          `json:"trace_id"`
	State     string          `json:"state"`
	Cache     string          `json:"cache"`
	Error     string          `json:"error"`
	Failure   string          `json:"failure"`
	HostSpans []obs.HostSpan  `json:"host_spans"`
	Trace     json.RawMessage `json:"trace"`
}

type levelStats struct {
	mu        sync.Mutex
	hist      *obs.Histogram // request latency, µs
	hits      int64
	errors    int64
	spans     []obs.HostSpan // server-side spans returned on each job
	jobTraces []obs.JobTrace // virtual traces of the first -tracejobs jobs
	retried   atomic.Int64   // 429/503/transport retries (client OnRetry hook)

	// Per-target breakdown (multi-node runs); indexed like the target list.
	nodes []nodeStats
}

// nodeStats is one target's share of a level (guarded by levelStats.mu).
type nodeStats struct {
	hist      obs.Histogram // latency of requests this node served, µs
	errors    int64         // requests that failed against this node
	hits      int64
	failovers int64 // requests that left this node for the next target
}

// nodeResult is one target's machine-readable breakdown (-json).
type nodeResult struct {
	Target        string            `json:"target"`
	Completed     int64             `json:"completed"`
	Errors        int64             `json:"errors"`
	Failovers     int64             `json:"failovers"`
	CacheHits     int64             `json:"cache_hits"`
	ThroughputRPS float64           `json:"throughput_rps"`
	PercentilesUs obs.PercentileSet `json:"percentiles_us"`
}

// levelResult is one concurrency level's machine-readable report (-json).
type levelResult struct {
	Concurrency   int               `json:"concurrency"`
	Completed     int64             `json:"completed"`
	Errors        int64             `json:"errors"`
	Retries       int64             `json:"retries"`
	CacheHits     int64             `json:"cache_hits"`
	ElapsedUs     int64             `json:"elapsed_us"`
	ThroughputRPS float64           `json:"throughput_rps"`
	PercentilesUs obs.PercentileSet `json:"percentiles_us"`
	LatencyUs     obs.HistSnapshot  `json:"latency_us"`
	Nodes         []nodeResult      `json:"nodes,omitempty"`
}

// us renders a µs-valued percentile as a rounded duration for the table.
func us(v int64) time.Duration {
	return (time.Duration(v) * time.Microsecond).Round(time.Microsecond)
}

func main() {
	var (
		addr      = flag.String("addr", "http://127.0.0.1:8135", "stserve base URL")
		targets   = flag.String("targets", "", "comma-separated stserve base URLs or host:port; spreads load round-robin with per-node breakdowns and failover (overrides -addr)")
		appsFlag  = flag.String("app", "fib", "comma-separated benchmark names, cycled per request")
		mode      = flag.String("mode", "st", "execution mode: seq, st, cilk")
		workers   = flag.Int("workers", 4, "virtual workers per job")
		full      = flag.Bool("full", false, "paper-scale inputs")
		engine    = flag.String("engine", "", "host engine per job: sequential or throughput (empty = server default)")
		levels    = flag.String("c", "1,2,4", "comma-separated offered concurrency levels")
		n         = flag.Int("n", 100, "requests per level")
		seeds     = flag.Uint64("seeds", 1, "cycle seeds 1..N (1 = one tuple; 0 = unique seed per request)")
		priority  = flag.Int("priority", 0, "job priority")
		nocache   = flag.Bool("nocache", false, "bypass the server's result cache")
		maxcycles = flag.Int64("maxcycles", 0, "per-job work-cycle budget")
		faultPlan = flag.String("fault", "", "per-job fault plan, name[:seed] (part of the canonical tuple)")
		audit     = flag.Int("audit", 0, "per-job invariant-audit cadence in scheduler picks (0 = off)")
		retries   = flag.Int("retries", 6, "attempts per request before giving up (429/503/transport)")
		timeout   = flag.Duration("timeout", 5*time.Minute, "HTTP client timeout per request")
		jsonOut   = flag.Bool("json", false, "emit one machine-readable JSON report (histogram + percentiles per level)")
		traceOut  = flag.String("trace", "", "write a two-clock Chrome trace (host + virtual, joined by trace_id) to this file")
		traceJobs = flag.Int("tracejobs", 4, "with -trace: fetch the virtual-time trace of the first N jobs per level")
	)
	flag.Parse()

	appList := strings.Split(*appsFlag, ",")
	targetList := []string{*addr}
	if *targets != "" {
		targetList = targetList[:0]
		for _, tgt := range strings.Split(*targets, ",") {
			if tgt = strings.TrimSpace(tgt); tgt == "" {
				continue
			}
			if !strings.Contains(tgt, "://") {
				tgt = "http://" + tgt
			}
			targetList = append(targetList, tgt)
		}
		if len(targetList) == 0 {
			fmt.Fprintln(os.Stderr, "stload: -targets named no targets")
			os.Exit(2)
		}
	}
	var levelList []int
	for _, s := range strings.Split(*levels, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || v <= 0 {
			fmt.Fprintf(os.Stderr, "stload: bad concurrency level %q\n", s)
			os.Exit(2)
		}
		levelList = append(levelList, v)
	}

	// With -trace, the client's own request/backoff spans land in this
	// recorder under the same trace ids the server sees.
	var hostRec *obs.HostRecorder
	if *traceOut != "" {
		hostRec = obs.NewHostRecorder(0)
	}

	var totalCompleted int64
	var results []levelResult
	var allSpans []obs.HostSpan
	var allTraces []obs.JobTrace
	if !*jsonOut {
		fmt.Printf("%-6s %10s %8s %8s %8s %12s %10s %10s %10s %10s\n",
			"conc", "completed", "errors", "retries", "hits", "thr req/s", "p50", "p90", "p99", "max")
	}
	for li, c := range levelList {
		st := &levelStats{hist: &obs.Histogram{}, nodes: make([]nodeStats, len(targetList))}
		// One client per target per level so the retry counter and jitter
		// stream are the level's own and backoff state never crosses nodes.
		clients := make([]*client.Client, len(targetList))
		for i, tgt := range targetList {
			clients[i] = client.New(client.Config{
				BaseURL:     tgt,
				HTTPClient:  &http.Client{Timeout: *timeout},
				MaxAttempts: *retries,
				OnRetry:     func(client.RetryInfo) { st.retried.Add(1) },
				Host:        hostRec,
			})
		}
		var seq atomic.Int64
		start := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < c; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					k := seq.Add(1) - 1
					if k >= int64(*n) {
						return
					}
					seed := uint64(k) + 1
					if *seeds > 0 {
						seed = uint64(k)%*seeds + 1
					}
					req := map[string]any{
						"app":     appList[int(k)%len(appList)],
						"mode":    *mode,
						"workers": *workers,
						"seed":    seed,
						"wait":    true,
					}
					if *full {
						req["full"] = true
					}
					if *engine != "" {
						req["engine"] = *engine
					}
					if *priority != 0 {
						req["priority"] = *priority
					}
					if *nocache {
						req["no_cache"] = true
					}
					if *maxcycles > 0 {
						req["max_work_cycles"] = *maxcycles
					}
					if *faultPlan != "" {
						req["fault_plan"] = *faultPlan
					}
					if *audit > 0 {
						req["audit"] = *audit
					}
					// Tracing: mint the trace id client-side so both clock
					// domains carry it; ask the first -tracejobs jobs for
					// their virtual-time trace artifact.
					traceID := ""
					wantTrace := false
					if *traceOut != "" {
						traceID = fmt.Sprintf("lt-%d-%d", li, k)
						wantTrace = k < int64(*traceJobs)
						if wantTrace {
							req["trace"] = true
						}
					}
					// Round-robin across targets, failing over to the next
					// node when one is unreachable: a node killed mid-run
					// costs a retry, never a lost request.
					var view jobView
					var err error
					served := int(k) % len(targetList)
					t0 := time.Now()
					for off := 0; off < len(targetList); off++ {
						idx := (int(k) + off) % len(targetList)
						view = jobView{}
						err = clients[idx].PostJSONTrace(context.Background(), "/jobs", traceID, req, &view)
						if err == nil {
							served = idx
							break
						}
						st.mu.Lock()
						if off < len(targetList)-1 {
							st.nodes[idx].failovers++
						} else {
							st.nodes[idx].errors++
						}
						st.mu.Unlock()
					}
					lat := time.Since(t0)
					st.mu.Lock()
					switch {
					case err != nil:
						st.errors++
					case view.State != "done":
						st.errors++
						st.nodes[served].errors++
					default:
						st.hist.Observe(lat.Microseconds())
						st.nodes[served].hist.Observe(lat.Microseconds())
						if view.Cache == "hit" {
							st.hits++
							st.nodes[served].hits++
						}
						if *traceOut != "" {
							st.spans = append(st.spans, view.HostSpans...)
							if wantTrace && len(view.Trace) > 0 {
								st.jobTraces = append(st.jobTraces, obs.JobTrace{
									TraceID: view.TraceID, Job: view.ID, Trace: view.Trace,
								})
							}
						}
					}
					st.mu.Unlock()
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)

		completed := st.hist.Count()
		totalCompleted += completed
		thr := float64(completed) / elapsed.Seconds()
		pcts := st.hist.Percentiles()
		var nodes []nodeResult
		if len(targetList) > 1 {
			for i, tgt := range targetList {
				ns := &st.nodes[i]
				nodes = append(nodes, nodeResult{
					Target:        tgt,
					Completed:     ns.hist.Count(),
					Errors:        ns.errors,
					Failovers:     ns.failovers,
					CacheHits:     ns.hits,
					ThroughputRPS: float64(ns.hist.Count()) / elapsed.Seconds(),
					PercentilesUs: ns.hist.Percentiles(),
				})
			}
		}
		if *jsonOut {
			reg := obs.NewRegistry()
			*reg.Histogram("latency_us") = *st.hist
			results = append(results, levelResult{
				Concurrency:   c,
				Completed:     completed,
				Errors:        st.errors,
				Retries:       st.retried.Load(),
				CacheHits:     st.hits,
				ElapsedUs:     elapsed.Microseconds(),
				ThroughputRPS: thr,
				PercentilesUs: pcts,
				LatencyUs:     reg.Snapshot().Histograms["latency_us"],
				Nodes:         nodes,
			})
		} else {
			fmt.Printf("c=%-4d %10d %8d %8d %8d %12.1f %10v %10v %10v %10v\n",
				c, completed, st.errors, st.retried.Load(), st.hits, thr,
				us(pcts.P50), us(pcts.P90), us(pcts.P99), us(pcts.Max))
			for _, nr := range nodes {
				fmt.Printf("  %-28s %8d %8d %8d %12.1f %10v %10v %10v\n",
					nr.Target, nr.Completed, nr.Errors+nr.Failovers, nr.CacheHits,
					nr.ThroughputRPS, us(nr.PercentilesUs.P50),
					us(nr.PercentilesUs.P90), us(nr.PercentilesUs.P99))
			}
		}

		if *traceOut != "" {
			allSpans = append(allSpans, st.spans...)
			allTraces = append(allTraces, st.jobTraces...)
		}
	}
	if *traceOut != "" {
		// Client spans (request, retry-backoff) from the shared recorder,
		// server spans returned on each job, and the collected virtual
		// traces, merged into one two-clock file.
		allSpans = append(allSpans, hostRec.Spans()...)
		if err := writeTwoClock(*traceOut, allSpans, allTraces); err != nil {
			fmt.Fprintf(os.Stderr, "stload: %v\n", err)
			os.Exit(1)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(map[string]any{"levels": results, "total_completed": totalCompleted}); err != nil {
			fmt.Fprintf(os.Stderr, "stload: %v\n", err)
			os.Exit(1)
		}
	} else {
		fmt.Printf("total completed=%d\n", totalCompleted)
	}
	if totalCompleted == 0 {
		os.Exit(1)
	}
}

// writeTwoClock writes the merged two-clock Chrome trace file.
func writeTwoClock(path string, host []obs.HostSpan, jobs []obs.JobTrace) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteTwoClockTrace(f, host, jobs); err != nil {
		f.Close()
		return fmt.Errorf("write two-clock trace: %w", err)
	}
	return f.Close()
}
