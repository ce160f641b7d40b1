package obs

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"respat/internal/stats"
)

// bucketOf returns the index of the bucket holding ns, NumBuckets for
// the +Inf bucket, by the same ≤ rule Observe uses.
func bucketOf(ns float64) int {
	i := 0
	for i < NumBuckets && ns > float64(BucketBoundsNS[i]) {
		i++
	}
	return i
}

// TestHistQuantileKnownValues pins the histogram_quantile arithmetic on
// hand-computed cases.
func TestHistQuantileKnownValues(t *testing.T) {
	var h Histogram
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty snapshot p50 = %v, want 0", got)
	}
	h.Observe(400)   // (0, 1µs]
	h.Observe(900)   // (0, 1µs]
	h.Observe(1_200) // (1µs, 2.5µs]
	h.Observe(2_000) // (1µs, 2.5µs]
	s := h.Snapshot()
	for _, c := range []struct{ q, want float64 }{
		{0.25, 500},   // rank 1 of 2 in [0, 1000]
		{0.5, 1_000},  // rank 2: the first bucket's upper bound
		{0.75, 1_750}, // rank 1 of 2 in [1000, 2500]
		{1, 2_500},
	} {
		if got := s.Quantile(c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := s.Quantile(0); got != 0 {
		t.Errorf("Quantile(0) = %v, want 0", got)
	}

	var inf Histogram
	inf.Observe(3_000)
	for i := 0; i < 9; i++ {
		inf.Observe(20_000_000_000) // above the last bound
	}
	if got, want := inf.Snapshot().Quantile(0.9), float64(BucketBoundsNS[NumBuckets-1]); got != want {
		t.Errorf("+Inf-bucket p90 = %v, want the last finite bound %v", got, want)
	}
}

// TestHistQuantileMatchesExact compares Quantile with the exact sample
// quantile on seeded log-uniform latencies from 100 ns to 20 s, which
// cover every bucket and the +Inf overflow: the estimate must fall in
// the exact quantile's bucket or an adjacent one, and be monotone in q.
// The samples are one observation or many: in between, the exact
// quantile interpolates between order statistics that can sit buckets
// apart.
func TestHistQuantileMatchesExact(t *testing.T) {
	qs := make([]float64, 0, 102)
	for i := 0; i < 100; i++ {
		qs = append(qs, float64(i)/100)
	}
	qs = append(qs, 0.999, 1)
	lo, hi := math.Log(100), math.Log(20e9)
	for seed := uint64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewPCG(seed, 17))
		for _, n := range []int{1, 1000, 20000} {
			xs := make([]float64, n)
			var h Histogram
			for i := range xs {
				xs[i] = math.Exp(lo + (hi-lo)*rng.Float64())
				h.Observe(int64(xs[i]))
			}
			s := h.Snapshot()
			exact, err := stats.Quantiles(xs, qs...)
			if err != nil {
				t.Fatal(err)
			}
			prev := 0.0
			for i, q := range qs {
				got := s.Quantile(q)
				if d := bucketOf(got) - bucketOf(exact[i]); d < -1 || d > 1 {
					t.Errorf("seed %d n %d: Quantile(%v) = %v in bucket %d, exact %v in bucket %d",
						seed, n, q, got, bucketOf(got), exact[i], bucketOf(exact[i]))
				}
				if got < prev {
					t.Errorf("seed %d n %d: Quantile(%v) = %v below Quantile of a smaller q, %v", seed, n, q, got, prev)
				}
				prev = got
			}
		}
	}
}

// TestHistogramHalve: Halve halves every bucket, the count and the sum,
// rounding down.
func TestHistogramHalve(t *testing.T) {
	var h Histogram
	for i := 0; i < 7; i++ {
		h.Observe(500) // ≤ 1µs
	}
	for i := 0; i < 4; i++ {
		h.Observe(3_000) // ≤ 5µs
	}
	for i := 0; i < 3; i++ {
		h.Observe(20_000_000_000) // +Inf
	}
	before := h.Snapshot()
	h.Halve()
	s := h.Snapshot()
	if s.Cumulative[0] != 3 || s.Cumulative[2] != 3+2 || s.Cumulative[NumBuckets-1] != 5 {
		t.Errorf("halved cumulative = %v, want 3 then 5", s.Cumulative)
	}
	if s.Count != 6 {
		t.Errorf("halved count = %d, want 6", s.Count)
	}
	if s.SumNS != before.SumNS/2 {
		t.Errorf("halved sum = %d, want %d", s.SumNS, before.SumNS/2)
	}
	for i := 0; i < 4; i++ {
		h.Halve()
	}
	if s := h.Snapshot(); s.Count != 0 || s.Quantile(0.9) != 0 {
		t.Errorf("after repeated halving: count %d, p90 %v, want 0 and 0", s.Count, s.Quantile(0.9))
	}
}

// TestHalveConcurrentWithObserve races recorders, a halver and a reader
// on one histogram (run under -race): every snapshot stays cumulative
// and every quantile within [0, last bound].
func TestHalveConcurrentWithObserve(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				h.Observe(int64(1_000 * (i%50 + 1)))
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			h.Halve()
		}
	}()
	last := float64(BucketBoundsNS[NumBuckets-1])
	for i := 0; i < 500; i++ {
		s := h.Snapshot()
		for j := 1; j < NumBuckets; j++ {
			if s.Cumulative[j] < s.Cumulative[j-1] {
				t.Fatalf("snapshot not cumulative at %d: %v", j, s.Cumulative)
			}
		}
		if p := s.Quantile(0.9); p < 0 || p > last {
			t.Fatalf("p90 = %v outside [0, %v]", p, last)
		}
	}
	wg.Wait()
}
