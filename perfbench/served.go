package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/snapshot"
)

// served drives one in-process server over loopback HTTP, configured as
// stserve deploys it: a fixed number of executor slots, the default result
// cache, and (for checkpointing workloads) a snapshot store at the default
// cadence.
type served struct {
	w         *Workload
	st        stream
	srv       *server.Server
	hs        *http.Server
	transport *http.Transport
	cl        *client.Client
	store     *countingStore // nil unless the workload checkpoints
	oracles   map[int]oracle
	cursor
}

// oracle is the result fields a served job must reproduce exactly.
type oracle struct {
	RV, Time, WorkCycles, Instrs, Steals, Attempts, Rejects int64
	Workers                                                 int
}

func oracleOf(r *core.Result) oracle {
	return oracle{RV: r.RV, Time: r.Time, WorkCycles: r.WorkCycles, Instrs: r.Instrs,
		Steals: r.Steals, Attempts: r.Attempts, Rejects: r.Rejects, Workers: len(r.Stats)}
}

// startServed is one set-up: start the server and its listener, warm the
// path with the workload's warm-up jobs, and compute the oracle sample.
func startServed(w *Workload, st stream, rep int) (*served, error) {
	h := &served{w: w, st: st}
	cfg := server.Config{
		HostProcs:     w.HostProcs,
		DefaultEngine: w.Engine,
		HostSpans:     obs.NewHostRecorder(obs.DefaultHostSpanBound),
	}
	if w.Checkpoint {
		h.store = &countingStore{Store: snapshot.NewMemStore()}
		cfg.Checkpoints = h.store
	}
	h.srv = server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		h.srv.Drain()
		return nil, fmt.Errorf("perfbench: listen: %w", err)
	}
	h.hs = &http.Server{Handler: h.srv.Handler()}
	go func() { _ = h.hs.Serve(ln) }() // returns ErrServerClosed at close
	h.transport = &http.Transport{MaxConnsPerHost: w.Clients, MaxIdleConnsPerHost: w.Clients}
	h.cl = client.New(client.Config{
		BaseURL:     "http://" + ln.Addr().String(),
		HTTPClient:  &http.Client{Transport: h.transport, Timeout: 2 * time.Minute},
		MaxAttempts: 1, // a refusal is a failure to count, not to hide behind a retry
	})
	for k := 0; k < w.WarmupJobs; k++ {
		if r := h.post(context.Background(), spaceWarmup, rep*w.WarmupJobs+k, ""); r.failed {
			t := st.tuple(spaceWarmup, rep*w.WarmupJobs+k)
			h.close()
			return nil, fmt.Errorf("perfbench: warm-up job %s: %s", t.App, r.why)
		}
	}
	h.oracles = make(map[int]oracle)
	for _, i := range st.oracleIndices() {
		res, err := runOracle(w, st.tuple(spaceMeasured, i))
		if err != nil {
			h.close()
			return nil, err
		}
		h.oracles[i] = oracleOf(res)
	}
	return h, nil
}

// runOracle runs a tuple on the sequential reference engine with no
// collector attached; every engine and tier must reproduce its bytes.
func runOracle(w *Workload, t Tuple) (*core.Result, error) {
	wl, err := w.build(t)
	if err != nil {
		return nil, err
	}
	cfg := w.pathConfig(t.Seed)
	cfg.Engine, cfg.HostProcs = core.EngineSequential, 0
	res, err := core.Run(wl, cfg)
	if err != nil {
		return nil, fmt.Errorf("perfbench: oracle %s seed %d: %w", t.App, t.Seed, err)
	}
	return res, nil
}

// close stops the listener and the server; no job is in flight by then.
func (h *served) close() {
	_ = h.hs.Close() // the listener's only error is a second close
	h.transport.CloseIdleConnections()
	h.srv.Drain()
}

// post sends job idx of a stream space and checks its output.
func (h *served) post(ctx context.Context, space, idx int, traceID string) jobRec {
	t := h.st.tuple(space, idx)
	req := server.JobRequest{
		App: t.App, Full: h.w.full(), Mode: "st", Workers: h.w.Workers,
		Seed: t.Seed, Wait: true,
	}
	r := jobRec{idx: idx, tup: t, sent: time.Now()}
	var v server.JobView
	err := h.cl.PostJSONTrace(ctx, "/jobs", traceID, req, &v)
	r.done = time.Now()
	var se *client.StatusError
	switch {
	case errors.As(err, &se):
		r.failed, r.status, r.why = true, se.Code, se.Error()
	case err != nil:
		r.failed, r.why = true, err.Error()
	case v.State != server.StateDone || v.Result == nil:
		r.failed, r.why = true, fmt.Sprintf("job ended %s: %s", v.State, v.Error)
	case v.Cache == "hit":
		r.failed, r.why = true, "cache hit on a cold workload"
	}
	if r.failed {
		return r
	}
	r.workCycles, r.key, r.spans = v.Result.WorkCycles, v.Key, v.HostSpans
	if k, ok := h.st.oracleKey(space, idx); ok {
		want := h.oracles[k]
		g := v.Result
		have := oracle{RV: g.RV, Time: g.Time, WorkCycles: g.WorkCycles, Instrs: g.Instrs,
			Steals: g.Steals, Attempts: g.Attempts, Rejects: g.Rejects, Workers: g.Workers}
		if have != want {
			r.failed, r.why = true, fmt.Sprintf("output differs from the oracle: have %+v, want %+v", have, want)
		}
	}
	return r
}

// closedJob is the closed-loop step: serve one stream index.
func (h *served) closedJob(tr *spanLog) closedJob {
	return func(ctx context.Context, client, space, i int) jobRec {
		r := h.post(ctx, space, i, tr.traceID(i))
		r.client, r.due = client, r.sent
		r.execSpan = tr.served(r)
		return r
	}
}

// openLoop sends jobs on a fixed schedule of OpenRate per second for d,
// from w.Clients sender goroutines (one connection each). A request is due
// at its slot whether or not a sender is free, so a stall shows as
// lateness and latency, not as less offered load.
func (h *served) openLoop(ctx context.Context, d time.Duration, tr *spanLog) *phase {
	interval := time.Duration(float64(time.Second) / h.w.OpenRate)
	slots := int(d / interval)
	var (
		mu   sync.Mutex
		slot atomic.Int64
		wg   sync.WaitGroup
	)
	u0 := readUsage()
	p := &phase{start: time.Now()}
	for c := 0; c < h.w.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				k := int(slot.Add(1) - 1)
				if k >= slots || ctx.Err() != nil {
					return
				}
				due := p.start.Add(time.Duration(k) * interval)
				time.Sleep(time.Until(due))
				space, i := h.take()
				r := h.post(ctx, space, i, tr.traceID(i))
				r.client, r.due = c, due
				r.execSpan = tr.served(r)
				mu.Lock()
				p.recs = append(p.recs, r)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	p.finish(u0)
	return p
}

// counters is a read of the server's cache counters and the checkpoint
// store's totals; a nil harness (the direct path) reads zero.
type counters struct {
	hits, misses, evictions int64
	store                   storeCounts
}

func (h *served) counts() counters {
	if h == nil {
		return counters{}
	}
	m := h.srv.Metrics()
	return counters{m.Counter("cache_hits"), m.Counter("cache_misses"), m.Counter("cache_evictions"), h.store.counts()}
}

// capture switches checkpoint payload and span capture on or off (see
// countingStore.trace).
func (h *served) capture(on bool) (last []byte, spans []putSpan) {
	if h == nil {
		return nil, nil
	}
	return h.store.trace(on)
}

// countingStore wraps the server's snapshot store to count and time the
// checkpoints the executor writes, and keeps the newest payload so the
// codec can be timed on real bytes.
type countingStore struct {
	snapshot.Store
	mu    sync.Mutex
	puts  int64
	bytes int64
	putNs int64
	// traced keeps the newest payload and each put's span; off in untraced
	// runs so holding a 36 MB payload never shows in their memory figures.
	traced bool
	last   []byte
	spans  []putSpan
}

// putSpan is one timed Store.Put, keyed by the job's cache key.
type putSpan struct {
	key        string
	start, end time.Time
}

func (s *countingStore) Put(key string, data []byte) error {
	t0 := time.Now()
	err := s.Store.Put(key, data)
	t1 := time.Now()
	s.mu.Lock()
	s.puts++
	s.bytes += int64(len(data))
	s.putNs += int64(t1.Sub(t0))
	if s.traced {
		s.last = data
		s.spans = append(s.spans, putSpan{key, t0, t1})
	}
	s.mu.Unlock()
	return err
}

// storeCounts is a read of the store's totals.
type storeCounts struct {
	puts, bytes int64
	put         time.Duration
}

func (s storeCounts) since(a storeCounts) storeCounts {
	return storeCounts{s.puts - a.puts, s.bytes - a.bytes, s.put - a.put}
}

func (s *countingStore) counts() storeCounts {
	if s == nil {
		return storeCounts{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return storeCounts{s.puts, s.bytes, time.Duration(s.putNs)}
}

// trace switches payload and span capture on or off and returns what was
// captured while it was on.
func (s *countingStore) trace(on bool) (last []byte, spans []putSpan) {
	if s == nil {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	last, spans = s.last, s.spans
	s.traced, s.last, s.spans = on, nil, nil
	return last, spans
}
