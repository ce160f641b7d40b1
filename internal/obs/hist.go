package obs

import "sync/atomic"

// BucketBoundsNS are the fixed latency-histogram bucket upper bounds
// in nanoseconds, shared by the per-endpoint and per-stage histograms
// so Prometheus queries can aggregate across both. The range spans
// sub-microsecond cache hits to multi-second cold multilevel searches;
// observations above the last bound land in the implicit +Inf bucket.
var BucketBoundsNS = [...]int64{
	1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 500_000, // µs range
	1_000_000, 2_500_000, 5_000_000, 10_000_000, 25_000_000, 50_000_000, // ms range
	100_000_000, 250_000_000, 500_000_000, // sub-second
	1_000_000_000, 2_500_000_000, 5_000_000_000, 10_000_000_000, // seconds
}

// NumBuckets is the number of finite buckets; the exposition adds the
// +Inf bucket on top.
const NumBuckets = len(BucketBoundsNS)

// Histogram is a fixed-bucket latency histogram with atomic counters:
// recording is lock-free and allocation-free, so it can sit on the
// request path. The zero value is ready to use.
type Histogram struct {
	buckets [NumBuckets + 1]atomic.Int64 // last slot = +Inf overflow
	sumNS   atomic.Int64
}

// Observe records one duration in nanoseconds.
func (h *Histogram) Observe(ns int64) {
	if h == nil {
		return
	}
	i := 0
	for i < NumBuckets && ns > BucketBoundsNS[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.sumNS.Add(ns)
}

// Halve halves every bucket count and the sum, rounding down, so the
// observations recorded before the call weigh half as much as those
// recorded after it: halving every k observations keeps the quantiles
// following the most recent few k. Observations racing the call are
// kept whole, and a Snapshot taken during it may see some buckets
// halved and others not.
func (h *Histogram) Halve() {
	for i := range h.buckets {
		v := h.buckets[i].Load()
		h.buckets[i].Add(v/2 - v)
	}
	v := h.sumNS.Load()
	h.sumNS.Add(v/2 - v)
}

// HistSnapshot is one histogram's state, cumulative per the
// Prometheus histogram convention: Cumulative[i] counts observations
// ≤ BucketBoundsNS[i], and Count is the +Inf bucket.
type HistSnapshot struct {
	Cumulative [NumBuckets]int64
	Count      int64
	SumNS      int64
}

// Snapshot captures the histogram. Counters are read individually (no
// global lock), so a snapshot taken during concurrent recording is
// approximate; Count is the sum of the buckets read, so cumulativity
// holds by construction and the exposition always lints clean.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	var run int64
	for i := 0; i < NumBuckets; i++ {
		run += h.buckets[i].Load()
		s.Cumulative[i] = run
	}
	s.Count = run + h.buckets[NumBuckets].Load()
	s.SumNS = h.sumNS.Load()
	return s
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) in nanoseconds by
// Prometheus's histogram_quantile rule: it finds the bucket holding
// rank q·Count and interpolates linearly between that bucket's bounds,
// the first bucket starting at 0. A rank in the +Inf bucket reads as
// the last finite bound (10 s), and an empty snapshot reads 0.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	rank := q * float64(s.Count)
	var lo float64  // lower bound of bucket i
	var below int64 // observations in the buckets before i
	for i, c := range s.Cumulative {
		hi := float64(BucketBoundsNS[i])
		// c > below skips empty buckets, which only a rank of 0 can
		// reach.
		if float64(c) >= rank && c > below {
			return lo + (hi-lo)*(rank-float64(below))/float64(c-below)
		}
		lo, below = hi, c
	}
	return lo
}
