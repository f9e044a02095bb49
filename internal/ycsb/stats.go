package ycsb

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/obs"
)

// Histogram is a log-bucketed latency histogram (HDR-style growth factor
// ~1.08), cheap enough for the hot path and precise enough for the tail
// percentiles Figure 1(right) plots.
type Histogram struct {
	buckets [512]uint64
	count   uint64
	sum     uint64
	max     uint64
	min     uint64
}

const histGrowth = 1.08

var histLogG = math.Log(histGrowth)

func bucketOf(ns uint64) int {
	if ns < 1 {
		ns = 1
	}
	i := int(math.Log(float64(ns)) / histLogG)
	if i >= 512 {
		i = 511
	}
	return i
}

func bucketLow(i int) uint64 { return uint64(math.Pow(histGrowth, float64(i))) }

// Record adds one latency observation.
func (h *Histogram) Record(d time.Duration) {
	ns := uint64(d.Nanoseconds())
	h.buckets[bucketOf(ns)]++
	h.count++
	h.sum += ns
	if ns > h.max {
		h.max = ns
	}
	if h.min == 0 || ns < h.min {
		h.min = ns
	}
}

// Merge folds other into h (per-thread histograms merge at the end of a
// run).
func (h *Histogram) Merge(other *Histogram) {
	for i, c := range other.buckets {
		h.buckets[i] += c
	}
	h.count += other.count
	h.sum += other.sum
	if other.max > h.max {
		h.max = other.max
	}
	if h.min == 0 || (other.min != 0 && other.min < h.min) {
		h.min = other.min
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the average latency.
func (h *Histogram) Mean() time.Duration {
	if h.count == 0 {
		return 0
	}
	return time.Duration(h.sum / h.count)
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max) }

// Percentile returns the latency at quantile p in [0,1].
func (h *Histogram) Percentile(p float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	target := uint64(p * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen > target {
			return time.Duration(bucketLow(i))
		}
	}
	return time.Duration(h.max)
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v p99.99=%v max=%v",
		h.count, h.Mean(), h.Percentile(0.50), h.Percentile(0.99),
		h.Percentile(0.9999), h.Max())
}

// Result is the outcome of one YCSB run.
type Result struct {
	Workload   string
	Backend    string
	Duration   time.Duration
	Operations uint64
	Errors     uint64
	PerOp      map[OpType]*Histogram
	// Stack, when the harness supplies it, is the cross-layer metrics
	// delta for the run interval (grid latency, nvm/heap/fa counters and
	// the derived pwb/pfence-per-op columns).
	Stack *obs.StackSnapshot
}

// Throughput returns operations per second.
func (r *Result) Throughput() float64 {
	if r.Duration == 0 {
		return 0
	}
	return float64(r.Operations) / r.Duration.Seconds()
}

// OpTypes returns the op types present, sorted for stable printing.
func (r *Result) OpTypes() []OpType {
	var out []OpType
	for t := range r.PerOp {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
