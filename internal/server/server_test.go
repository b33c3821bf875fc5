package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

// jobState reads a job's state under the server mutex.
func jobState(s *Server, j *Job) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.state
}

func jobErr(s *Server, j *Job) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.errMsg
}

// jobFailure reads a job's failure-taxonomy class under the server mutex.
func jobFailure(s *Server, j *Job) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return j.failure
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// awaitDone blocks on the job's completion channel.
func awaitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s never reached a terminal state", j.ID)
	}
}

// blocker submits the long-running pingpong job (full scale: one million
// suspension rounds) that pins the single executor in the admission tests.
func blocker(t *testing.T, s *Server) *Job {
	t.Helper()
	j, err := s.Submit(JobRequest{App: "pingpong", Full: true, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "blocker running", func() bool { return jobState(s, j) == StateRunning })
	return j
}

func TestSubmitRunsJob(t *testing.T) {
	s := New(Config{QueueBound: 8, HostProcs: 2, CacheEntries: 16})
	defer s.Drain()
	j, err := s.Submit(JobRequest{App: "fib", Workers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	awaitDone(t, j)
	if st := jobState(s, j); st != StateDone {
		t.Fatalf("state = %s (%s), want done", st, jobErr(s, j))
	}
	if j.out == nil || j.out.Result == nil {
		t.Fatal("done job has no result")
	}
	if len(j.out.Metrics) == 0 || j.out.Profile == "" || len(j.out.Trace) == 0 {
		t.Fatal("done job is missing artifacts")
	}
}

func TestSubmitValidation(t *testing.T) {
	s := New(Config{QueueBound: 8, HostProcs: 1, CacheEntries: -1})
	defer s.Drain()
	for _, req := range []JobRequest{
		{App: "no-such-benchmark"},
		{App: "fib", Mode: "warp"},
		{App: "fib", CPU: "z80"},
		{App: "fib", Engine: "quantum"},
		{App: "fib", Engine: "parallel"},
		{App: "fib", Workers: maxJobWorkers + 1},
	} {
		if _, err := s.Submit(req); err == nil {
			t.Fatalf("bad request %+v accepted", req)
		}
	}
	if _, err := s.Submit(JobRequest{App: "fib", Workers: 1 << 24}); err == nil ||
		!strings.Contains(err.Error(), fmt.Sprint(maxJobWorkers)) {
		t.Fatalf("oversized worker count: err = %v, want one naming the cap %d", err, maxJobWorkers)
	}
}

// TestCacheKeyCanonical: quantum and max_work_cycles at or below zero mean
// the default, so every such spelling must share the default's cache key.
func TestCacheKeyCanonical(t *testing.T) {
	key := func(r JobRequest) string {
		t.Helper()
		n, err := r.Normalized()
		if err != nil {
			t.Fatal(err)
		}
		return n.CacheKey()
	}
	want := key(JobRequest{App: "fib"})
	for _, r := range []JobRequest{
		{App: "fib", Quantum: -5},
		{App: "fib", MaxWorkCycles: -1},
		{App: "fib", Quantum: -1 << 40, MaxWorkCycles: -7},
	} {
		if got := key(r); got != want {
			t.Fatalf("%+v: cache key %q, want %q", r, got, want)
		}
	}
	if key(JobRequest{App: "fib", Quantum: 100}) == want {
		t.Fatal("a positive quantum must change the cache key")
	}
}

// TestSubmitBodyBounded: an oversized POST /jobs body and an oversized worker
// count both get typed 4xx answers, and the node stays healthy.
func TestSubmitBodyBounded(t *testing.T) {
	s := New(Config{QueueBound: 4, HostProcs: 1, CacheEntries: -1})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (int, errView) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v errView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, v
	}
	huge := `{"app":"` + strings.Repeat("a", 2<<20) + `"}`
	if code, v := post(huge); code != http.StatusRequestEntityTooLarge || v.Error == "" {
		t.Fatalf("2 MiB body: status %d, error %q; want 413 with an error", code, v.Error)
	}
	if code, v := post(`{"app":"fib","workers":16777216}`); code != http.StatusBadRequest ||
		!strings.Contains(v.Error, fmt.Sprint(maxJobWorkers)) {
		t.Fatalf("oversized worker count: status %d, error %q; want 400 naming the cap", code, v.Error)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d after hostile requests, want 200", resp.StatusCode)
	}
}

// TestAdmissionBackpressure drives the queue to its bound deterministically:
// one executor runs the blocker, the dispatcher holds one popped job while
// the pool is busy, the queue holds one more, and the next submission is
// rejected with ErrQueueFull. Every accepted job still reaches a terminal
// state — admission control never drops what it accepted.
func TestAdmissionBackpressure(t *testing.T) {
	s := New(Config{QueueBound: 1, HostProcs: 1, CacheEntries: -1})
	b := blocker(t, s)

	j2, err := s.Submit(JobRequest{App: "fib", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The dispatcher pops j2 and parks in Pool.Submit (executor busy).
	waitFor(t, "dispatcher to hold j2", func() bool { return s.queue.Len() == 0 })
	j3, err := s.Submit(JobRequest{App: "fib", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(JobRequest{App: "fib", Seed: 4}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", err)
	}
	if got := s.met.Counter("jobs_rejected_queue_full"); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}

	// Unblock and confirm nothing accepted was lost.
	if _, err := s.Cancel(b.ID); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	for _, j := range []*Job{j2, j3} {
		if st := jobState(s, j); st != StateDone {
			t.Fatalf("%s state = %s (%s), want done", j.ID, st, jobErr(s, j))
		}
	}
	if st := jobState(s, b); st != StateCanceled {
		t.Fatalf("blocker state = %s, want canceled", st)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	s := New(Config{QueueBound: 4, HostProcs: 1, CacheEntries: -1})
	b := blocker(t, s)

	// Park one job in the dispatcher, then queue the cancellation target so
	// it is canceled while still waiting for dispatch.
	j2, err := s.Submit(JobRequest{App: "fib", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "dispatcher to hold j2", func() bool { return s.queue.Len() == 0 })
	j3, err := s.Submit(JobRequest{App: "fib", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Cancel(j3.ID); err != nil {
		t.Fatal(err)
	}
	if st := jobState(s, j3); st != StateCanceled {
		t.Fatalf("queued job state after cancel = %s, want canceled", st)
	}
	awaitDone(t, j3) // done channel must already be closed

	if _, err := s.Cancel(b.ID); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	// The dispatcher must have skipped the canceled job, not run it.
	if j3.out != nil {
		t.Fatal("canceled queued job produced output")
	}
	if st := jobState(s, j2); st != StateDone {
		t.Fatalf("j2 state = %s, want done", st)
	}
}

func TestCancelRunningJob(t *testing.T) {
	s := New(Config{QueueBound: 4, HostProcs: 1, CacheEntries: -1})
	b := blocker(t, s)
	if _, err := s.Cancel(b.ID); err != nil {
		t.Fatal(err)
	}
	awaitDone(t, b)
	if st := jobState(s, b); st != StateCanceled {
		t.Fatalf("state = %s, want canceled", st)
	}
	if msg := jobErr(s, b); !strings.Contains(msg, "context canceled") {
		t.Fatalf("errMsg = %q, want context cancellation", msg)
	}
	s.Drain()
}

func TestCancelUnknownJob(t *testing.T) {
	s := New(Config{QueueBound: 4, HostProcs: 1, CacheEntries: -1})
	defer s.Drain()
	if _, err := s.Cancel("j-999"); !errors.Is(err, ErrNoJob) {
		t.Fatalf("err = %v, want ErrNoJob", err)
	}
}

func TestJobDeadline(t *testing.T) {
	s := New(Config{QueueBound: 4, HostProcs: 1, CacheEntries: -1})
	defer s.Drain()
	// Paper-scale pingpong overflows its logical stack after ~125ms on an
	// unloaded host; the deadline must win that race with a wide margin.
	j, err := s.Submit(JobRequest{App: "pingpong", Full: true, TimeoutMs: 25})
	if err != nil {
		t.Fatal(err)
	}
	awaitDone(t, j)
	if st := jobState(s, j); st != StateTimeout {
		t.Fatalf("state = %s (%s), want timeout", st, jobErr(s, j))
	}
	if got := s.met.Counter("jobs_timeout"); got != 1 {
		t.Fatalf("timeout counter = %d, want 1", got)
	}
}

func TestJobCycleBudget(t *testing.T) {
	s := New(Config{QueueBound: 4, HostProcs: 1, CacheEntries: -1})
	defer s.Drain()
	j, err := s.Submit(JobRequest{App: "pingpong", Full: true, MaxWorkCycles: 20_000})
	if err != nil {
		t.Fatal(err)
	}
	awaitDone(t, j)
	if st := jobState(s, j); st != StateFailed {
		t.Fatalf("state = %s, want failed", st)
	}
	if msg := jobErr(s, j); !strings.Contains(msg, "budget") {
		t.Fatalf("errMsg = %q, want cycle-budget error", msg)
	}
}

// TestServerBudgetCeiling: the server-wide MaxWorkCycles clamps jobs that
// name no budget of their own.
func TestServerBudgetCeiling(t *testing.T) {
	s := New(Config{QueueBound: 4, HostProcs: 1, CacheEntries: -1, MaxWorkCycles: 20_000})
	defer s.Drain()
	j, err := s.Submit(JobRequest{App: "pingpong", Full: true})
	if err != nil {
		t.Fatal(err)
	}
	awaitDone(t, j)
	if st := jobState(s, j); st != StateFailed {
		t.Fatalf("state = %s, want failed under the server ceiling", st)
	}
	if msg := jobErr(s, j); !strings.Contains(msg, "budget") {
		t.Fatalf("errMsg = %q, want cycle-budget error", msg)
	}
}

func TestCacheHitServesIdenticalOutput(t *testing.T) {
	s := New(Config{QueueBound: 8, HostProcs: 2, CacheEntries: 16})
	defer s.Drain()
	req := JobRequest{App: "fib", Workers: 4, Seed: 7}
	j1, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	awaitDone(t, j1)
	j2, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	awaitDone(t, j2)
	if j1.cacheUse != "miss" || j2.cacheUse != "hit" {
		t.Fatalf("cacheUse = %q, %q; want miss, hit", j1.cacheUse, j2.cacheUse)
	}
	if j1.out != j2.out {
		t.Fatal("cache hit returned a different output object")
	}
	st := s.Stats()
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Fatalf("cache counters hits=%d misses=%d, want 1/1", st.CacheHits, st.CacheMisses)
	}
}

func TestDrainRefusesNewCompletesAccepted(t *testing.T) {
	s := New(Config{QueueBound: 16, HostProcs: 2, CacheEntries: -1})
	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, err := s.Submit(JobRequest{App: "fib", Seed: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	s.Drain()
	for _, j := range jobs {
		if st := jobState(s, j); st != StateDone {
			t.Fatalf("%s state = %s (%s) after drain, want done", j.ID, st, jobErr(s, j))
		}
	}
	if _, err := s.Submit(JobRequest{App: "fib", Seed: 99}); !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
	st := s.Stats()
	if st.Accepted != 6 || st.Completed != 6 {
		t.Fatalf("stats accepted=%d completed=%d, want 6/6", st.Accepted, st.Completed)
	}
	s.Drain() // idempotent
}

// TestHTTPAPI exercises the wire surface end to end: submit-and-wait,
// status, metrics, health, cancellation, and the error statuses.
func TestHTTPAPI(t *testing.T) {
	s := New(Config{QueueBound: 8, HostProcs: 2, CacheEntries: 16})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) (*http.Response, JobView) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		return resp, v
	}

	// Submit-and-wait returns the finished job with its result.
	resp, v := post(`{"app":"fib","workers":4,"seed":1,"wait":true,"metrics":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	if v.State != StateDone || v.Result == nil || v.Result.RV == 0 {
		t.Fatalf("view = %+v, want done with a result", v)
	}
	if len(v.Metrics) == 0 {
		t.Fatal("metrics requested but absent")
	}
	if v.Cache != "miss" {
		t.Fatalf("cache = %q, want miss", v.Cache)
	}

	// The same tuple again: a hit, byte-identical result.
	_, v2 := post(`{"app":"fib","workers":4,"seed":1,"wait":true}`)
	if v2.Cache != "hit" || v2.Result == nil || *v2.Result != *v.Result {
		t.Fatalf("cache-hit view = %+v, want identical result to %+v", v2, v)
	}

	// Async submit + GET ?wait=1.
	resp3, v3 := post(`{"app":"fib","workers":2,"seed":5}`)
	if resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit status = %d, want 202", resp3.StatusCode)
	}
	getResp, err := http.Get(ts.URL + "/jobs/" + v3.ID + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	var v4 JobView
	if err := json.NewDecoder(getResp.Body).Decode(&v4); err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if v4.State != StateDone {
		t.Fatalf("waited GET state = %s, want done", v4.State)
	}

	// Errors: bad body, bad benchmark, unknown id.
	if resp, _ := post(`{"app":"fib","bogus_field":1}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := post(`{"app":"no-such-benchmark"}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad benchmark status = %d, want 400", resp.StatusCode)
	}
	if resp, v := post(`{"app":"fib","engine":"parallel"}`); resp.StatusCode != http.StatusBadRequest ||
		!strings.Contains(v.Error, "valid engines: sequential, throughput") {
		t.Fatalf("deleted engine: status = %d, error %q; want 400 naming the valid engines", resp.StatusCode, v.Error)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/j-999", nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusNotFound {
		t.Fatalf("cancel unknown status = %d, want 404", delResp.StatusCode)
	}

	// Metrics and health.
	mResp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics map[string]any
	if err := json.NewDecoder(mResp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	mResp.Body.Close()
	if len(metrics) == 0 {
		t.Fatal("empty metrics snapshot")
	}
	hResp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hResp.Body.Close()
	if hResp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", hResp.StatusCode)
	}
}

// TestHTTPBackpressureStatus: a full queue surfaces as 429 + Retry-After.
func TestHTTPBackpressureStatus(t *testing.T) {
	s := New(Config{QueueBound: 1, HostProcs: 1, CacheEntries: -1})
	b := blocker(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Fill the dispatcher slot and the queue, then expect rejection.
	j2, err := s.Submit(JobRequest{App: "fib", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "dispatcher to hold j2", func() bool { return s.queue.Len() == 0 })
	if _, err := s.Submit(JobRequest{App: "fib", Seed: 3}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"app":"fib","seed":4}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if _, err := s.Cancel(b.ID); err != nil {
		t.Fatal(err)
	}
	_ = j2
	s.Drain()

	// Draining surfaces as 503.
	resp, err = http.Post(ts.URL+"/jobs", "application/json",
		strings.NewReader(`{"app":"fib","seed":5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status while draining = %d, want 503", resp.StatusCode)
	}
}

// TestExecutePanicIsJobFailure: an executor panic fails the one job with a
// typed failure and the supervisor restarts the slot. With a single slot,
// the follow-up job can only reach a terminal state if the restart
// actually happened.
func TestExecutePanicIsJobFailure(t *testing.T) {
	inj := fault.New(&fault.Plan{Name: "test", Seed: 1, ExecPanicPct: 100})
	s := New(Config{QueueBound: 4, HostProcs: 1, CacheEntries: -1, Fault: inj,
		BreakerThreshold: -1})
	defer s.Drain()
	j, err := s.Submit(JobRequest{App: "fib", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	awaitDone(t, j)
	if st := jobState(s, j); st != StateFailed {
		t.Fatalf("state = %s, want failed", st)
	}
	if f := jobFailure(s, j); f != FailFault {
		t.Fatalf("failure = %q, want %q (injected panic)", f, FailFault)
	}
	// The slot must have been replaced: a second job still executes (and
	// fails the same typed way, since the plan panics every execution).
	j2, err := s.Submit(JobRequest{App: "fib", Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	awaitDone(t, j2)
	if f := jobFailure(s, j2); f != FailFault {
		t.Fatalf("second job failure = %q, want %q", f, FailFault)
	}
	if n := s.Stats().ExecutorRestarts; n < 2 {
		t.Fatalf("executor_restarts = %d, want >= 2", n)
	}
}

// TestJobTableBounded pushes more terminal jobs through than the table
// retains: the oldest id must be forgotten (ErrNoJob, HTTP 404) and the
// newest must still resolve.
func TestJobTableBounded(t *testing.T) {
	s := New(Config{QueueBound: 8, HostProcs: 2, CacheEntries: 16})
	defer s.Drain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	req := JobRequest{App: "fib", Workers: 2, Seed: 3}
	var first, last *Job
	for i := 0; i < maxRetainedJobs+76; i++ {
		j, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		awaitDone(t, j)
		if i > 0 && j.cacheUse != "hit" {
			t.Fatalf("job %d cache = %q, want hit", i, j.cacheUse)
		}
		if first == nil {
			first = j
		}
		last = j
	}
	if _, err := s.Job(first.ID); !errors.Is(err, ErrNoJob) {
		t.Fatalf("oldest job %s: err = %v, want ErrNoJob", first.ID, err)
	}
	get := func(id string) int {
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(first.ID); code != http.StatusNotFound {
		t.Fatalf("GET oldest job: status %d, want 404", code)
	}
	if code := get(last.ID); code != http.StatusOK {
		t.Fatalf("GET newest job: status %d, want 200", code)
	}
	s.mu.Lock()
	n := len(s.jobs)
	s.mu.Unlock()
	if n > maxRetainedJobs {
		t.Fatalf("job table holds %d jobs, want at most %d", n, maxRetainedJobs)
	}
}
