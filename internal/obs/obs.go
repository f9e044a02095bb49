// Package obs is the stack-wide observability layer: low-overhead atomic
// counters and fixed-bucket log-scale latency histograms, shared by every
// layer of the reproduction (nvm, heap, fa, store, bench).
//
// The paper's evaluation is, at its core, an exercise in counting: Table 3
// reports pwb/pfence rates, Figures 7-9 report per-operation latency
// distributions, and §5.3 attributes every slowdown to a hardware-level
// cost. This package makes those costs first-class so that any experiment
// (and any future optimization PR) can read them from one place instead of
// keeping bespoke counters.
//
// Design constraints, in order:
//
//  1. Zero allocation on the hot path. Counter.Add and Histogram.Observe
//     are a handful of atomic instructions; no locks, no maps, no
//     interface boxing.
//  2. Snapshot/delta semantics. Readers take immutable Snapshots; two
//     snapshots subtract to the interval in between, which is how the
//     bench layer derives per-operation pwb/pfence columns.
//  3. No dependencies. obs imports only the standard library, so every
//     internal package can depend on it without cycles.
package obs

import (
	"encoding/json"
	"math/bits"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Gauge is a last-value-wins atomic, for point-in-time values (worker
// counts, configured limits) that Sub must not delta away.
type Gauge struct{ v atomic.Uint64 }

// Store replaces the value.
func (g *Gauge) Store(v uint64) { g.v.Store(v) }

// Load returns the current value.
func (g *Gauge) Load() uint64 { return g.v.Load() }

// clockBase is the monotonic origin of Now, taken at process start.
var clockBase = time.Now()

// Now returns the time since process start from one monotonic clock read:
// time.Since of a time that carries a monotonic reading reads no wall
// clock, where time.Now reads both. A span timed with Now at each
// boundary costs two clock reads, against three for time.Now plus
// time.Since (BenchmarkClockSpan).
func Now() time.Duration { return time.Since(clockBase) }

// Histogram bucket geometry: values 0..15 get exact buckets; above that,
// each power of two splits into 16 linear sub-buckets (HDR-style, ~6%
// relative error), so bucketing is two shifts and a mask — no math.Log on
// the hot path.
const (
	histSubBits = 4
	histSub     = 1 << histSubBits // 16 sub-buckets per octave
	// 0..15 identity region + one 16-slot band per remaining exponent.
	histBuckets = histSub + (64-histSubBits)*histSub
)

func bucketIdx(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1 // MSB position, >= histSubBits
	sub := (v >> uint(e-histSubBits)) & (histSub - 1)
	return (e-histSubBits+1)*histSub + int(sub)
}

// bucketLow returns the smallest value mapping to bucket i (the value
// reported for percentiles, matching the convention of ycsb.Histogram).
func bucketLow(i int) uint64 {
	if i < histSub {
		return uint64(i)
	}
	e := i/histSub - 1 + histSubBits
	sub := uint64(i % histSub)
	return 1<<uint(e) | sub<<uint(e-histSubBits)
}

// Histogram is a concurrency-safe log-scale latency histogram. The zero
// value is ready to use. Observe is wait-free (atomic adds plus two CAS
// loops for the extrema) and allocation-free.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64
	max     atomic.Uint64
	min     atomic.Uint64 // stored as value+1 so zero means "unset"
}

// Observe records one latency sample.
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(d.Nanoseconds())
	h.ObserveNs(ns)
}

// ObserveSince records the span from start, a Now reading, to now.
func (h *Histogram) ObserveSince(start time.Duration) { h.Observe(Now() - start) }

// ObserveNs records one sample expressed in nanoseconds.
func (h *Histogram) ObserveNs(ns uint64) {
	h.buckets[bucketIdx(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := h.min.Load()
		if (cur != 0 && ns+1 >= cur) || h.min.CompareAndSwap(cur, ns+1) {
			break
		}
	}
}

// Count returns the number of samples observed so far.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot captures a consistent-enough view of the histogram (individual
// bucket loads race with writers, which for monotonic counters only skews
// a snapshot by in-flight samples).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	if m := h.min.Load(); m != 0 {
		s.Min = m - 1
	}
	s.buckets = make([]uint64, histBuckets)
	for i := range h.buckets {
		s.buckets[i] = h.buckets[i].Load()
	}
	return s
}

// HistogramSnapshot is an immutable copy of a Histogram. It serializes to
// a compact JSON summary (count, mean, percentiles) rather than raw
// buckets.
type HistogramSnapshot struct {
	Count uint64
	Sum   uint64 // ns
	Min   uint64 // ns
	Max   uint64 // ns

	buckets []uint64
}

// Sub returns the delta histogram for the interval between prev and h.
// Count, Sum and buckets subtract; Min and Max cannot be deltaed and keep
// h's lifetime values.
func (h HistogramSnapshot) Sub(prev HistogramSnapshot) HistogramSnapshot {
	out := HistogramSnapshot{
		Count: h.Count - prev.Count,
		Sum:   h.Sum - prev.Sum,
		Min:   h.Min,
		Max:   h.Max,
	}
	if h.buckets != nil {
		out.buckets = make([]uint64, len(h.buckets))
		copy(out.buckets, h.buckets)
		for i := range prev.buckets {
			if i < len(out.buckets) {
				out.buckets[i] -= prev.buckets[i]
			}
		}
	}
	return out
}

// Mean returns the average sample in nanoseconds.
func (h HistogramSnapshot) Mean() uint64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / h.Count
}

// Percentile returns the sample value at quantile p in [0,1], in
// nanoseconds.
func (h HistogramSnapshot) Percentile(p float64) uint64 {
	if h.Count == 0 || h.buckets == nil {
		return 0
	}
	target := uint64(p * float64(h.Count))
	if target >= h.Count {
		target = h.Count - 1
	}
	var seen uint64
	for i, c := range h.buckets {
		seen += c
		if seen > target {
			return bucketLow(i)
		}
	}
	return h.Max
}

// histogramJSON is the wire form of a snapshot.
type histogramJSON struct {
	Count  uint64 `json:"count"`
	MeanNs uint64 `json:"mean_ns"`
	P50Ns  uint64 `json:"p50_ns"`
	P95Ns  uint64 `json:"p95_ns"`
	P99Ns  uint64 `json:"p99_ns"`
	MinNs  uint64 `json:"min_ns"`
	MaxNs  uint64 `json:"max_ns"`
}

// MarshalJSON emits the summary form: count, mean and tail percentiles.
func (h HistogramSnapshot) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramJSON{
		Count:  h.Count,
		MeanNs: h.Mean(),
		P50Ns:  h.Percentile(0.50),
		P95Ns:  h.Percentile(0.95),
		P99Ns:  h.Percentile(0.99),
		MinNs:  h.Min,
		MaxNs:  h.Max,
	})
}

// UnmarshalJSON restores the summary fields (bucket detail is not part of
// the wire form; Percentile on a restored snapshot returns 0).
func (h *HistogramSnapshot) UnmarshalJSON(b []byte) error {
	var j histogramJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*h = HistogramSnapshot{Count: j.Count, Sum: j.MeanNs * j.Count, Min: j.MinNs, Max: j.MaxNs}
	return nil
}
