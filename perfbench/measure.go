package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// usage is a point-in-time read of the process's resource counters.
type usage struct {
	alloc    uint64        // Go heap bytes allocated, cumulative
	gcCycles uint64        // completed GC cycles
	gcCPU    float64       // CPU seconds spent in GC (runtime estimate)
	availCPU float64       // CPU seconds available to Go (GOMAXPROCS × wall)
	pause    time.Duration // cumulative stop-the-world GC pause
	procCPU  time.Duration // user + system CPU of the process
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

var usageMu sync.Mutex // metrics.Read's sample slice is shared

func readUsage() usage {
	usageMu.Lock()
	defer usageMu.Unlock()
	metrics.Read(usageSamples)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return usage{
		alloc:    usageSamples[0].Value.Uint64(),
		gcCycles: usageSamples[1].Value.Uint64(),
		gcCPU:    usageSamples[2].Value.Float64(),
		availCPU: usageSamples[3].Value.Float64(),
		pause:    time.Duration(ms.PauseTotalNs),
		procCPU:  time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
}

// since is the counters' growth from an earlier read.
func (u usage) since(a usage) usage {
	return usage{
		alloc:    u.alloc - a.alloc,
		gcCycles: u.gcCycles - a.gcCycles,
		gcCPU:    u.gcCPU - a.gcCPU,
		availCPU: u.availCPU - a.availCPU,
		pause:    u.pause - a.pause,
		procCPU:  u.procCPU - a.procCPU,
	}
}

// rssWindow is the length of one resident-set sampling window.
const rssWindow = 500 * time.Millisecond

// rssSampler records the resident-set high-water mark (VmHWM) of each
// rssWindow of a measured phase, resetting the mark between windows. The
// reported peak is the 90th percentile of the window peaks, not the
// all-time mark: the all-time mark of a garbage-collected process swings
// with where GC cycles happened to fall, and reading it made the metric
// too unsteady to bound. A high percentile still moves when a short-lived
// buffer (one checkpoint payload, say) is alive in more than a tenth of
// the windows.
type rssSampler struct {
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
	err   error
}

// startRSS starts sampling; the kernel must allow resetting the mark.
func startRSS() (*rssSampler, error) {
	if err := resetPeakRSS(); err != nil {
		return nil, fmt.Errorf("perfbench: reset peak RSS: %w", err)
	}
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssWindow)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				s.sample()
				return
			case <-t.C:
				if !s.sample() {
					return
				}
			}
		}
	}()
	return s, nil
}

// sample closes a window: it reads the mark and resets it.
func (s *rssSampler) sample() bool {
	peak, err := peakRSS()
	if err == nil {
		err = resetPeakRSS()
	}
	if err != nil {
		s.err = err
		return false
	}
	s.peaks = append(s.peaks, float64(peak))
	return true
}

// rssQuantile is the window-peak percentile reported as peak_rss_mb.
const rssQuantile = 0.9

// finish stops sampling and returns the rssQuantile window peak in bytes
// and the largest.
func (s *rssSampler) finish() (peak, top float64, err error) {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return 0, 0, fmt.Errorf("perfbench: peak RSS: %w", s.err)
	}
	sorted := append([]float64(nil), s.peaks...)
	sort.Float64s(sorted)
	if len(sorted) > 0 {
		top = sorted[len(sorted)-1]
	}
	return quantile(sorted, rssQuantile), top, nil
}

// resetPeakRSS restarts the kernel's resident-set high-water mark.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSS reads the resident-set high-water mark (VmHWM) in bytes.
func peakRSS() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

// jobRec is one job as the load generator saw it.
type jobRec struct {
	idx    int
	tup    Tuple
	client int
	// due is when the job was scheduled to start (the send time in a
	// closed loop); sent when the request left; done when the terminal
	// response arrived.
	due, sent, done time.Time
	// compiled is when a direct job finished compiling.
	compiled   time.Time
	failed     bool
	why        string
	status     int // HTTP status of a refused request
	workCycles int64
	key        string
	spans      []obs.HostSpan // the server's spans for the job
	execSpan   int64          // the traced execute span's id
}

// phase is one measured stretch of load.
type phase struct {
	recs  []jobRec
	start time.Time
	wall  time.Duration // start to the last completion
	use   usage         // resource growth over the phase
	// blocks holds a closed loop's complete blocks.
	blocks []block
}

// block is one client's complete run of the stream's repeating unit (see
// Workload.blockLen): every app of the mix, or every pool tuple, once, so
// every block does the same kind of work.
type block struct {
	recs       []jobRec
	start, end time.Time // first send, last completion
}

// rate is a block's completed jobs and simulated work cycles per host
// second.
func (b block) rate() (jobs, vcycles float64) {
	span := b.end.Sub(b.start).Seconds()
	if span <= 0 {
		return 0, 0
	}
	for _, r := range b.recs {
		if !r.failed {
			jobs++
			vcycles += float64(r.workCycles)
		}
	}
	return jobs / span, vcycles / span
}

func (p *phase) ok() []jobRec { return okRecs(p.recs) }

// closedJob serves or runs job idx of a stream space for a client.
type closedJob func(ctx context.Context, client, space, idx int) jobRec

// closedLoop runs clients goroutines for d, each starting its next job
// only when the previous one answered. A client takes whole blocks of n
// jobs (take hands out block-aligned index ranges), so its blocks all
// carry the same mix of short and long jobs; at d it starts no
// further job, and the block it was in the middle of counts as attempted
// and checked but not in the rates or the latency sample.
func closedLoop(ctx context.Context, clients, n int, d time.Duration, take func(n int) (space, first int), job closedJob) *phase {
	var (
		wg     sync.WaitGroup
		recs   = make([][]jobRec, clients)
		blocks = make([][]block, clients)
	)
	u0 := readUsage()
	p := &phase{start: time.Now()}
	deadline := p.start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				space, first := take(n)
				b := block{start: time.Now()}
				for k := 0; k < n && time.Now().Before(deadline) && ctx.Err() == nil; k++ {
					b.recs = append(b.recs, job(ctx, c, space, first+k))
				}
				recs[c] = append(recs[c], b.recs...)
				if len(b.recs) < n {
					return
				}
				b.end = b.recs[n-1].done
				blocks[c] = append(blocks[c], b)
			}
		}(c)
	}
	wg.Wait()
	for c := range recs {
		p.recs = append(p.recs, recs[c]...)
		p.blocks = append(p.blocks, blocks[c]...)
	}
	p.finish(u0)
	return p
}

// finish closes the phase at its last completion.
func (p *phase) finish(u0 usage) {
	p.use = readUsage().since(u0)
	end := p.start
	for _, r := range p.recs {
		if r.done.After(end) {
			end = r.done
		}
	}
	p.wall = end.Sub(p.start)
}

// throughput is the closed loop's completed jobs and simulated work cycles
// per host second: the median block's rate times the client count, since
// every client is busy for the whole loop. A burst of host interference
// spoils the blocks it overlaps, not the run.
func (p *phase) throughput(clients int) (jobsPerS, vcyclesPerS float64) {
	var j, v []float64
	for _, b := range p.blocks {
		bj, bv := b.rate()
		j = append(j, bj)
		v = append(v, bv)
	}
	return float64(clients) * medianOf(j), float64(clients) * medianOf(v)
}

// blockRecs are the jobs of the complete blocks: the closed loop's latency
// sample, in which every app of the mix has the same share.
func (p *phase) blockRecs() []jobRec {
	var out []jobRec
	for _, b := range p.blocks {
		out = append(out, b.recs...)
	}
	return out
}

// failures counts failed jobs and tallies their reasons.
func failures(recs []jobRec) (n int, first string) {
	for _, r := range recs {
		if r.failed {
			if n == 0 {
				first = r.why
			}
			n++
		}
	}
	return n, first
}
