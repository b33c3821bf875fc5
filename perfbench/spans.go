package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// spanLog is the traced run's in-memory span record: one span per layer
// boundary the benchmark's own code crosses (name, start, end, parent, and
// the job id every span of one job shares), plus the server's own spans
// for each served job. A nil *spanLog records nothing, so untraced runs
// pay one pointer check per job.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

type span struct {
	id, parent int64
	name       string
	job        string
	tid        int
	start, end time.Time
}

func newSpanLog() *spanLog { return &spanLog{} }

// add records a span and returns its id (0 on a nil log).
func (l *spanLog) add(parent int64, name, job string, tid int, start, end time.Time) int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := int64(len(l.spans) + 1)
	l.spans = append(l.spans, span{id: id, parent: parent, name: name, job: job, tid: tid, start: start, end: end})
	return id
}

// traceID is the X-Trace-Id a traced job carries, so the server's spans
// and the client's join on it; untraced jobs send none.
func (l *spanLog) traceID(idx int) string {
	if l == nil {
		return ""
	}
	return "pb-" + strconv.Itoa(idx)
}

func jobID(r jobRec) string { return "job-" + strconv.Itoa(r.idx) }

// served records a served job: the job span from its due time, the client
// request inside it, and the server's enqueue-wait, cache-probe and
// execute spans inside the request. It returns the execute span's id.
func (l *spanLog) served(r jobRec) int64 {
	if l == nil {
		return 0
	}
	job := jobID(r)
	root := l.add(0, "job", job, r.client, r.due, r.done)
	req := l.add(root, "client.request", job, r.client, r.sent, r.done)
	var exec int64
	for _, s := range r.spans {
		start := time.UnixMicro(s.Start)
		id := l.add(req, "server."+s.Name, job, r.client, start, start.Add(time.Duration(s.Dur)*time.Microsecond))
		if s.Name == "execute" {
			exec = id
		}
	}
	return exec
}

// direct records a direct job: the job span with its compile and
// core.RunProgram children.
func (l *spanLog) direct(r jobRec) {
	if l == nil || r.compiled.IsZero() {
		return
	}
	job := jobID(r)
	root := l.add(0, "job", job, r.client, r.sent, r.done)
	l.add(root, "compile", job, r.client, r.sent, r.compiled)
	l.add(root, "core.run", job, r.client, r.compiled, r.done)
}

// writeChrome writes the spans as a Chrome trace_event file (complete
// events, microseconds from the first span), creating the directory.
func (l *spanLog) writeChrome(path string) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("perfbench: span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("perfbench: span file: %w", err)
	}
	defer f.Close()
	var t0 time.Time
	for _, s := range l.spans {
		if t0.IsZero() || s.start.Before(t0) {
			t0 = s.start
		}
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	bw := bufio.NewWriter(f)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	for i, s := range l.spans {
		if i > 0 {
			if _, err := bw.WriteString(","); err != nil {
				return err
			}
		}
		if err := enc.Encode(event{
			Name: s.name, Ph: "X", Ts: us(s.start.Sub(t0)), Dur: us(s.end.Sub(s.start)),
			Pid: 1, Tid: s.tid,
			Args: map[string]any{"id": s.id, "parent": s.parent, "job": s.job},
		}); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
