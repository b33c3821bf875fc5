package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond the reported tail
// percentile: the tail is the highest percentile the sample supports.
const tailBeyond = 10

// sortedMs returns the durations in milliseconds, ascending.
func sortedMs(d []time.Duration) []float64 {
	out := make([]float64, len(d))
	for i, v := range d {
		out[i] = float64(v) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// median is the middle of an ascending sample (the mean of the two middle
// values for an even count); 0 for an empty sample.
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of an ascending sample: the
// smallest value with at least a share q of the sample at or below it
// (q = 0 gives the minimum); 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(n))) - 1
	return sorted[min(max(k, 0), n-1)]
}

// tail returns the value at the highest nearest-rank percentile that still
// has tailBeyond samples above it, that percentile, and the sample count.
// For n samples that is the (n-10)th smallest, i.e. percentile
// 100·(n-10)/n. A sample too small to leave ten beyond any rank reports its
// maximum at percentile 100, so a short run cannot pass for a long one.
func tail(sorted []float64) (value, pct float64, n int) {
	n = len(sorted)
	if n == 0 {
		return 0, 0, 0
	}
	if n <= tailBeyond {
		return sorted[n-1], 100, n
	}
	return sorted[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n), n
}

// latency is counted from when the job was due: in an open loop that is
// its scheduled send time, so a generator or server stall charges its wait
// to every request it delayed.
func (r jobRec) latency() time.Duration { return r.done.Sub(r.due) }

// late is how far behind schedule the generator sent the request.
func (r jobRec) late() time.Duration {
	if d := r.sent.Sub(r.due); d > 0 {
		return d
	}
	return 0
}

// latencies are the successful jobs' latencies; failures are reported
// through error_frac and slo_miss_frac, never as latency samples.
func latencies(recs []jobRec) []time.Duration {
	var out []time.Duration
	for _, r := range recs {
		if !r.failed {
			out = append(out, r.latency())
		}
	}
	return out
}

// sloMissFrac is the share of open-loop requests that failed or whose
// latency exceeded the limit. A failed request misses the SLO whatever its
// latency: a fast refusal or a wrong answer is never a fast sample.
func sloMissFrac(recs []jobRec, limit time.Duration) float64 {
	if len(recs) == 0 {
		return 0
	}
	miss := 0
	for _, r := range recs {
		if r.failed || r.latency() > limit {
			miss++
		}
	}
	return float64(miss) / float64(len(recs))
}

// commitRatio is the throughput engine's segment commit ratio with its
// base: commits ÷ (commits + reruns), where the base counts every pick the
// coordinator resolved either by adopting a speculated segment or by
// re-executing the quantum directly. Zero picks give ratio 0, base 0.
func commitRatio(commits, reruns int64) (ratio float64, base int64) {
	base = commits + reruns
	if base == 0 {
		return 0, 0
	}
	return float64(commits) / float64(base), base
}

// busyFrac is the executor's busy share: the summed execute spans over the
// capacity the slots offered during the window (slots × wall).
func busyFrac(busy time.Duration, slots int, wall time.Duration) float64 {
	if slots <= 0 || wall <= 0 {
		return 0
	}
	return float64(busy) / (float64(slots) * float64(wall))
}

// residualFrac is the share of a measured total that the summed layer
// times do not explain (negative when the layers over-explain it).
func residualFrac(measured, explained time.Duration) float64 {
	if measured <= 0 {
		return 0
	}
	return 1 - float64(explained)/float64(measured)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// perJob divides a total over a job count (0 jobs give 0).
func perJob(total float64, jobs int) float64 {
	if jobs == 0 {
		return 0
	}
	return total / float64(jobs)
}

// medianOf returns the median of unsorted values.
func medianOf(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return median(s)
}
