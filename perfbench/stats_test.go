package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, n := range []int{11, 12, 40, 100, 250, 1001} {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		v, pct, got := tail(s)
		if got != n {
			t.Fatalf("n=%d: sample count %d", n, got)
		}
		beyond := 0
		for _, x := range s {
			if x > v {
				beyond++
			}
		}
		if beyond != tailBeyond {
			t.Errorf("n=%d: %d samples beyond the tail %v, want %d", n, beyond, v, tailBeyond)
		}
		if want := 100 * float64(n-tailBeyond) / float64(n); pct != want {
			t.Errorf("n=%d: percentile %v, want %v", n, pct, want)
		}
	}
	// 100 samples: the tail is p90, the 90th smallest.
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if v, pct, _ := tail(s); v != 90 || pct != 90 {
		t.Errorf("100 samples: tail %v at p%v, want 90 at p90", v, pct)
	}
	// Too few samples to leave ten beyond any rank: the maximum, at p100.
	if v, pct, n := tail([]float64{1, 2, 3}); v != 3 || pct != 100 || n != 3 {
		t.Errorf("3 samples: tail %v at p%v (n %d), want 3 at p100", v, pct, n)
	}
	if v, pct, n := tail(nil); v != 0 || pct != 0 || n != 0 {
		t.Errorf("empty sample: %v %v %d", v, pct, n)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{1, 2, 9}); m != 2 {
		t.Errorf("odd median %v", m)
	}
	if m := median([]float64{1, 2, 4, 9}); m != 3 {
		t.Errorf("even median %v", m)
	}
	if m := medianOf([]float64{9, 1, 4}); m != 4 {
		t.Errorf("unsorted median %v", m)
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := make([]float64, 20)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.05, 1}, {0.5, 10}, {0.9, 18}, {0.91, 19}, {1, 20}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("q=%v: %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.9); got != 0 {
		t.Errorf("empty sample: %v", got)
	}
}

// TestClosedThroughputIsTheMedianBlockRate checks the closed-loop rate's
// base: a block is one client's run of every app of the mix once, its rate
// counts only successful jobs, and the loop's rate is the median block's
// rate times the client count.
func TestClosedThroughputIsTheMedianBlockRate(t *testing.T) {
	t0 := time.Unix(100, 0)
	mk := func(secs float64, failed ...bool) block {
		b := block{start: t0, end: t0.Add(time.Duration(secs * float64(time.Second)))}
		for _, f := range failed {
			b.recs = append(b.recs, jobRec{failed: f, workCycles: 1000})
		}
		return b
	}
	p := &phase{blocks: []block{
		mk(1, false, false),    // 2 jobs/s
		mk(4, false, false),    // 0.5 jobs/s
		mk(0.5, false, true),   // one success: 2 jobs/s
		mk(2, false, false),    // 1 job/s
		mk(0.25, false, false), // 8 jobs/s
	}}
	jobs, vcycles := p.throughput(2)
	if jobs != 4 || vcycles != 4000 {
		t.Errorf("throughput %v jobs/s, %v vcycles/s; want 2 clients x the median block's 2 jobs/s and 2000 vcycles/s", jobs, vcycles)
	}
	if n := len(p.blockRecs()); n != 10 {
		t.Errorf("the latency sample holds %d jobs, want the 10 of the complete blocks", n)
	}
	if j, v := (block{start: t0, end: t0}).rate(); j != 0 || v != 0 {
		t.Errorf("a zero-length block rates %v, %v", j, v)
	}
}

// TestClosedLoopRunsWholeBlocks checks that each client takes aligned,
// whole blocks, and that the block cut short at the deadline is
// counted as attempted but kept out of the rates and the latency sample.
func TestClosedLoopRunsWholeBlocks(t *testing.T) {
	const n, clients = 3, 2
	var c cursor
	c.take() // an earlier phase left a block partly used
	job := func(_ context.Context, client, space, idx int) jobRec {
		r := jobRec{idx: idx, client: client, sent: time.Now()}
		time.Sleep(time.Millisecond)
		r.done = time.Now()
		return r
	}
	p := closedLoop(context.Background(), clients, n, 40*time.Millisecond, c.takeBlock, job)
	if len(p.blocks) == 0 {
		t.Fatal("no complete block in 40ms of 1ms jobs")
	}
	for _, b := range p.blocks {
		if len(b.recs) != n {
			t.Fatalf("a block of %d jobs, want %d", len(b.recs), n)
		}
		first := b.recs[0].idx
		if first%n != 0 || first == 0 {
			t.Fatalf("a block starts at job %d: not aligned past the used block", first)
		}
		for k, r := range b.recs {
			if r.idx != first+k || r.client != b.recs[0].client {
				t.Fatalf("block from job %d holds job %d of client %d", first, r.idx, r.client)
			}
		}
	}
	if extra := len(p.recs) - len(p.blockRecs()); extra < 0 || extra > clients*(n-1) {
		t.Errorf("%d jobs outside complete blocks, want at most %d", extra, clients*(n-1))
	}
}

func TestOpenLoopLatencyCountsFromDueTime(t *testing.T) {
	due := time.Unix(100, 0)
	r := jobRec{due: due, sent: due.Add(30 * time.Millisecond), done: due.Add(40 * time.Millisecond)}
	if got := r.latency(); got != 40*time.Millisecond {
		t.Errorf("latency %v, want 40ms from the due time, not 10ms from the send", got)
	}
	if got := r.late(); got != 30*time.Millisecond {
		t.Errorf("late %v, want 30ms", got)
	}
	early := jobRec{due: due, sent: due.Add(-time.Millisecond), done: due.Add(5 * time.Millisecond)}
	if got := early.late(); got != 0 {
		t.Errorf("a send ahead of schedule is not late, have %v", got)
	}
}

func TestFailuresAreSLOMissesNotSamples(t *testing.T) {
	due := time.Unix(100, 0)
	at := func(d time.Duration, failed bool) jobRec {
		return jobRec{due: due, sent: due, done: due.Add(d), failed: failed}
	}
	recs := []jobRec{
		at(5*time.Millisecond, false),  // fast and right
		at(1*time.Millisecond, true),   // fast refusal: a miss
		at(80*time.Millisecond, false), // too slow: a miss
		at(20*time.Millisecond, false), // within the limit
	}
	if got := sloMissFrac(recs, 50*time.Millisecond); got != 0.5 {
		t.Errorf("slo miss fraction %v, want 0.5", got)
	}
	lat := latencies(recs)
	if len(lat) != 3 {
		t.Fatalf("latency sample has %d entries, want the 3 successes", len(lat))
	}
	for _, d := range lat {
		if d == time.Millisecond {
			t.Errorf("the failed request's latency was sampled")
		}
	}
	if n, why := failures(append(recs, jobRec{failed: true, why: "second"})); n != 2 || why != "" {
		t.Errorf("failures %d (first %q), want 2", n, why)
	}
	if got := sloMissFrac(nil, time.Second); got != 0 {
		t.Errorf("empty open loop misses %v", got)
	}
}

func TestCommitRatioBase(t *testing.T) {
	r, base := commitRatio(94, 6)
	if base != 100 || math.Abs(r-0.94) > 1e-12 {
		t.Errorf("commit ratio %v over %d, want 0.94 over 100 picks", r, base)
	}
	if r, base := commitRatio(0, 0); r != 0 || base != 0 {
		t.Errorf("no picks: %v over %d", r, base)
	}
	if r, _ := commitRatio(0, 7); r != 0 {
		t.Errorf("all reruns: ratio %v", r)
	}
}

func TestExecBusyFracBase(t *testing.T) {
	// Two slots for 10 s offer 20 slot-seconds; 15 s of execute spans fill
	// three quarters of them.
	if got := busyFrac(15*time.Second, 2, 10*time.Second); got != 0.75 {
		t.Errorf("busy fraction %v, want 0.75", got)
	}
	if got := busyFrac(time.Second, 0, time.Second); got != 0 {
		t.Errorf("no slots: %v", got)
	}
	if got := busyFrac(time.Second, 2, 0); got != 0 {
		t.Errorf("no wall time: %v", got)
	}
}

func TestResidualFrac(t *testing.T) {
	if got := residualFrac(10*time.Millisecond, 8*time.Millisecond); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("residual %v, want 0.2", got)
	}
	if got := residualFrac(10*time.Millisecond, 12*time.Millisecond); math.Abs(got+0.2) > 1e-12 {
		t.Errorf("over-explained residual %v, want -0.2", got)
	}
	if got := residualFrac(0, time.Millisecond); got != 0 {
		t.Errorf("nothing measured: %v", got)
	}
}

func TestStreamIsSeededBalancedAndCold(t *testing.T) {
	w := &Workload{Apps: []string{"a", "b", "c", "d", "e"}, OracleEvery: 4, OracleMax: 3}
	s1 := stream{w: w, seed: 7}
	seen := map[uint64]bool{}
	for block := 0; block < 20; block++ {
		counts := map[string]int{}
		for k := 0; k < len(w.Apps); k++ {
			i := block*len(w.Apps) + k
			tp := s1.tuple(spaceMeasured, i)
			if tp != s1.tuple(spaceMeasured, i) {
				t.Fatalf("job %d is not a pure function of the seed", i)
			}
			counts[tp.App]++
			if seen[tp.Seed] {
				t.Fatalf("job %d repeats a job seed: it would hit the cache", i)
			}
			seen[tp.Seed] = true
			for _, space := range []int{spaceWarmup, spaceTraced} {
				if o := s1.tuple(space, i); seen[o.Seed] {
					t.Fatalf("job %d of space %d shares a measured seed", i, space)
				}
			}
		}
		for _, app := range w.Apps {
			if counts[app] != 1 {
				t.Fatalf("block %d runs %s %d times, want once", block, app, counts[app])
			}
		}
	}
	other := stream{w: w, seed: 8}
	same := 0
	for i := 0; i < 50; i++ {
		if other.tuple(spaceMeasured, i).App == s1.tuple(spaceMeasured, i).App {
			same++
		}
	}
	if same == 50 {
		t.Errorf("seeds 7 and 8 draw the same job order")
	}

	var checked []int
	for i := 0; i < 40; i++ {
		if _, ok := s1.oracleKey(spaceTraced, i); ok {
			t.Errorf("traced job %d of a unique-seed stream claims an oracle", i)
		}
		if k, ok := s1.oracleKey(spaceMeasured, i); ok {
			if k != i {
				t.Errorf("unique-seed job %d checked against oracle %d", i, k)
			}
			checked = append(checked, i)
		}
	}
	want := s1.oracleIndices()
	if len(checked) != len(want) {
		t.Fatalf("checked %v, oracles computed for %v", checked, want)
	}
	for i := range want {
		if checked[i] != want[i] {
			t.Fatalf("checked %v, oracles computed for %v", checked, want)
		}
	}

	if n := w.blockLen(); n != len(w.Apps) {
		t.Errorf("a unique-seed stream's block is %d jobs, want the %d apps", n, len(w.Apps))
	}
	pw := &Workload{Apps: []string{"fib", "cilksort"}, Pool: 4}
	ps := stream{w: pw, seed: 3}
	if n := pw.blockLen(); n != pw.Pool {
		t.Errorf("a pooled stream's block is %d jobs, want the pool of %d", n, pw.Pool)
	}
	for i := 0; i < 12; i++ {
		for _, space := range []int{spaceMeasured, spaceTraced} {
			k, ok := ps.oracleKey(space, i)
			if !ok || ps.tuple(space, i) != ps.tuple(spaceMeasured, k) {
				t.Fatalf("pooled job %d of space %d is not checked against its own tuple's oracle", i, space)
			}
		}
	}
}

// TestSpecMatchesBenchmarkJSON keeps workloads.json and the repository's
// BENCHMARK.json in step: every benchmark workload is defined with the same
// reason, and every prediction names metrics the benchmark declares.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, bw := range bench.Workloads {
		w, err := spec.workload(bw.Name)
		if err != nil {
			t.Fatal(err)
		}
		if w.Why != bw.Why {
			t.Errorf("%s: the why differs:\n workloads.json %q\n BENCHMARK.json %q", bw.Name, w.Why, bw.Why)
		}
	}
	e2e, layer := map[string]bool{}, map[string]bool{}
	for _, m := range bench.EndToEnd {
		e2e[m.Name] = true
	}
	for _, m := range bench.PerLayer {
		layer[m.Name] = true
	}
	for _, l := range spec.Layers {
		for _, m := range l.Metrics {
			if !layer[m] {
				t.Errorf("layer %q: %s is not a per_layer metric", l.Layer, m)
			}
		}
		for _, m := range l.Moves {
			if !e2e[m] && m != "slo_miss_frac" && m != "error_frac" {
				t.Errorf("layer %q: %s is not an end_to_end metric", l.Layer, m)
			}
		}
		for _, name := range l.HeavyOn {
			if _, err := spec.workload(name); err != nil {
				t.Errorf("layer %q: %v", l.Layer, err)
			}
		}
	}
}
