package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// TraceHeader carries the request-scoped trace id end to end: clients send
// it on POST /jobs, the server echoes it (minting an id when absent) and
// tags every span and log line with it.
const TraceHeader = "X-Trace-Id"

// retryAfterSeconds rounds a backoff up to whole seconds (the Retry-After
// header's granularity), with a floor of 1.
func retryAfterSeconds(d time.Duration) int {
	s := int((d + time.Second - 1) / time.Second)
	if s < 1 {
		s = 1
	}
	return s
}

// JobView is the wire form of a job's status. Result and the artifacts are
// deterministic; the *_us timings are host-side observability and are
// never part of any determinism contract.
type JobView struct {
	ID       string `json:"id"`
	TraceID  string `json:"trace_id,omitempty"`
	State    string `json:"state"`
	App      string `json:"app"`
	Key      string `json:"key"`
	Priority int    `json:"priority,omitempty"`
	Cache    string `json:"cache,omitempty"`
	Error    string `json:"error,omitempty"`
	Failure  string `json:"failure,omitempty"` // taxonomy: fault | invariant | panic | timeout
	// Resumed marks a run that continued from a checkpoint or a stolen
	// continuation rather than recomputing from scratch (host-side fact;
	// the bytes are identical either way).
	Resumed bool `json:"resumed,omitempty"`

	Result  *coreResultView `json:"result,omitempty"`
	Metrics json.RawMessage `json:"metrics,omitempty"`
	Profile string          `json:"profile,omitempty"`
	Trace   json.RawMessage `json:"trace,omitempty"`

	QueueWaitUs int64 `json:"queue_wait_us,omitempty"`
	RunUs       int64 `json:"run_us,omitempty"`

	// HostSpans are the job's wall-clock serving spans (enqueue wait, cache
	// probe, execution). Host-side observability only — like the *_us
	// timings, never part of any determinism contract.
	HostSpans []obs.HostSpan `json:"host_spans,omitempty"`
}

// coreResultView mirrors core.Result with stable JSON field names (the
// per-worker stats are summarized rather than dumped).
type coreResultView struct {
	RV         int64 `json:"rv"`
	Time       int64 `json:"time_cycles"`
	WorkCycles int64 `json:"work_cycles"`
	Instrs     int64 `json:"instrs"`
	Steals     int64 `json:"steals"`
	Attempts   int64 `json:"steal_attempts"`
	Rejects    int64 `json:"steal_rejects"`
	Workers    int   `json:"workers"`
}

// view renders a job's current status; the server mutex is taken briefly to
// read a consistent snapshot.
func (s *Server) view(j *Job) JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	v := JobView{
		ID:       j.ID,
		TraceID:  j.traceID,
		State:    j.state,
		App:      j.Req.App,
		Key:      j.Req.CacheKey(),
		Priority: j.Req.Priority,
		Cache:    j.cacheUse,
		Error:    j.errMsg,
		Failure:  j.failure,
		Resumed:  j.resumed,
	}
	if len(j.hostSpans) > 0 {
		v.HostSpans = append([]obs.HostSpan(nil), j.hostSpans...)
	}
	if !j.started.IsZero() {
		v.QueueWaitUs = j.started.Sub(j.submitted).Microseconds()
		if !j.finished.IsZero() {
			v.RunUs = j.finished.Sub(j.started).Microseconds()
		}
	}
	if out := j.out; out != nil {
		r := out.Result
		v.Result = &coreResultView{
			RV: r.RV, Time: r.Time, WorkCycles: r.WorkCycles, Instrs: r.Instrs,
			Steals: r.Steals, Attempts: r.Attempts, Rejects: r.Rejects, Workers: len(r.Stats),
		}
		if j.Req.Metrics {
			v.Metrics = out.Metrics
		}
		if j.Req.Profile {
			v.Profile = out.Profile
		}
		if j.Req.Trace {
			v.Trace = out.Trace
		}
	}
	return v
}

// Handler returns the service's HTTP API:
//
//	POST   /jobs        submit a JobRequest ("wait":true blocks until done);
//	                    an X-Trace-Id header joins the job to the client's
//	                    trace (minted server-side when absent) and is echoed
//	                    on every response for the job
//	GET    /jobs/{id}   job status (?wait=1 blocks until terminal)
//	DELETE /jobs/{id}   cancel a queued or running job
//	GET    /metrics     server metrics registry snapshot (JSON by default;
//	                    ?format=prom for Prometheus text exposition)
//	GET    /debug/jobs  live serving state: in-flight jobs with phase and
//	                    progress, queue depth, breaker, contention
//	GET    /healthz     liveness + draining flag
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/jobs", s.handleDebugJobs)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// noStore marks a response as point-in-time: metrics, health and debug
// snapshots must never be served from an HTTP cache.
func noStore(w http.ResponseWriter) {
	w.Header().Set("Cache-Control", "no-store")
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type errView struct {
	Error   string `json:"error"`
	Failure string `json:"failure,omitempty"`
}

// maxSubmitBody bounds a POST /jobs body, as the cluster front end does: a
// job request is a few hundred bytes, so anything larger is hostile.
const maxSubmitBody = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		status := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		writeJSON(w, status, errView{Error: "bad request body: " + err.Error()})
		return
	}
	j, err := s.SubmitTrace(req, r.Header.Get(TraceHeader))
	var shed *ShedError
	switch {
	case errors.As(err, &shed):
		// Load shedding: the breaker says the host is sick; tell the
		// client exactly how long to back off.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(shed.RetryAfter)))
		writeJSON(w, http.StatusServiceUnavailable, errView{Error: err.Error(), Failure: FailShed})
		return
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, errView{Error: err.Error()})
		return
	case errors.Is(err, ErrQueueFull):
		// Backpressure: tell closed-loop clients when to come back.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errView{Error: err.Error()})
		return
	case err != nil:
		writeJSON(w, http.StatusBadRequest, errView{Error: err.Error()})
		return
	}
	w.Header().Set(TraceHeader, j.TraceID())
	if req.Wait {
		select {
		case <-j.Done():
		case <-r.Context().Done():
			// The client went away; the job stays accepted and keeps
			// running (it is cheap, deterministic, and cacheable).
			writeJSON(w, http.StatusAccepted, s.view(j))
			return
		}
		writeJSON(w, http.StatusOK, s.view(j))
		return
	}
	writeJSON(w, http.StatusAccepted, s.view(j))
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errView{Error: err.Error()})
		return
	}
	w.Header().Set(TraceHeader, j.TraceID())
	if r.URL.Query().Get("wait") != "" {
		select {
		case <-j.Done():
		case <-r.Context().Done():
			return
		}
	}
	writeJSON(w, http.StatusOK, s.view(j))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, err := s.Cancel(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errView{Error: err.Error()})
		return
	}
	w.Header().Set(TraceHeader, j.TraceID())
	writeJSON(w, http.StatusOK, s.view(j))
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.syncObsMetrics()
	noStore(w)
	if r.URL.Query().Get("format") == "prom" {
		// Prometheus text exposition, version 0.0.4.
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.met.WritePrometheus(w, "st"); err != nil {
			writeJSON(w, http.StatusInternalServerError, errView{Error: err.Error()})
		}
		return
	}
	b, err := s.met.MarshalJSON()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errView{Error: err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(append(b, '\n'))
}

func (s *Server) handleDebugJobs(w http.ResponseWriter, _ *http.Request) {
	noStore(w)
	writeJSON(w, http.StatusOK, s.DebugSnapshot())
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	noStore(w)
	writeJSON(w, http.StatusOK, map[string]any{"ok": true, "draining": s.Draining()})
}
