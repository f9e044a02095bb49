package harness

import (
	"math"
	"math/bits"
	"sort"
)

// Hist is a log-linear latency histogram with 128 sub-buckets per power
// of two, so a bucket is at most 0.79 % wide. The program's own
// ycsb.Histogram grows 8 % per bucket: one sample crossing a bucket edge
// would then read as an 8 % regression of a median.
type Hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histBuckets = (64 - histSubBits + 1) * histSub
)

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - histSubBits - 1
	return (e+1)*histSub + int((v>>uint(e))&(histSub-1))
}

// histBounds returns the value range [lo, hi) bucket i covers.
func histBounds(i int) (lo, hi float64) {
	if i < histSub {
		return float64(i), float64(i + 1)
	}
	e := uint(i/histSub - 1)
	base := uint64(histSub+i%histSub) << e
	return float64(base), float64(base + 1<<e)
}

// Add records one sample (nanoseconds).
func (h *Hist) Add(ns uint64) {
	h.counts[histIndex(ns)]++
	h.n++
	h.sum += ns
}

// Count returns the number of samples.
func (h *Hist) Count() uint64 { return h.n }

// Mean returns the mean sample, 0 when empty.
func (h *Hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns the q-quantile (0 < q <= 1), interpolated inside the
// bucket that holds it; 0 when empty.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := histBounds(i)
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	_, hi := histBounds(histBuckets - 1)
	return hi
}

// Merge adds o's samples to h.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// Reset empties the histogram.
func (h *Hist) Reset() { *h = Hist{} }

// Median returns the median of xs (mean of the middle pair for an even
// count), skipping NaNs; NaN when nothing is left. xs is not modified.
func Median(xs []float64) float64 {
	s := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			s = append(s, x)
		}
	}
	if len(s) == 0 {
		return math.NaN()
	}
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Quartiles returns the first and third quartile of xs by the exclusive
// method, as Python's statistics.quantiles(xs, n=4) does; the driver
// judges spreads with that function, so -selfcheck must too.
func Quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return math.NaN(), math.NaN()
	}
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		d := pos - float64(j)
		return s[j-1] + d*(s[j]-s[j-1])
	}
	return at(1), at(3)
}
