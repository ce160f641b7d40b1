package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// p99 needs at least 1000 samples, p50 at least 20.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of sorted xs by linear
// interpolation between closest ranks. It refuses a percentile with
// fewer than minBeyond samples beyond it, which would rest on a handful
// of outliers.
func percentile(sorted []float64, q float64) (float64, error) {
	n := len(sorted)
	if beyond := float64(n) * (1 - q); beyond < minBeyond-1e-9 {
		return 0, fmt.Errorf("p%g of %d samples has %.1f beyond it, need %d", 100*q, n, beyond, minBeyond)
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, n-1)
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo]), nil
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns num/den, or 0 when den is 0 (a layer the run never
// entered).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// quietQuartile sets the block statistics of the end-to-end metrics.
// A timed phase is cut into blocks of consecutive units of work, in
// completion order; throughput_rps is the upper quartile of the blocks'
// throughputs and p99_ms the lower quartile of their p99 latencies. A
// shared machine slows down in bursts of a second or more, so a
// whole-phase mean or percentile mixes the program's speed with the
// neighbours' load; the faster quarter of the blocks leaves most of the
// bursts out.
const quietQuartile = 0.25

// blockMetrics returns throughput_rps over blocks of rateBlock units
// and p99_ms over blocks of p99Block units, each with its block count.
// ends are the units' completion times in seconds since the timed phase
// began, sorted; lat holds their latencies (ms) in the same order.
func blockMetrics(ends, lat []float64, rateBlock, p99Block int) (rps, p99 metric, err error) {
	rates := blockRates(ends, rateBlock)
	p99s, err := blockPercentiles(lat, p99Block, 0.99)
	switch {
	case err != nil:
		return metric{}, metric{}, err
	case len(rates) == 0 || len(p99s) == 0:
		return metric{}, metric{}, fmt.Errorf("%d units of work fill no block of %d; run longer", len(ends), max(rateBlock, p99Block))
	}
	return metric{"throughput_rps", "1/s", nearestRank(rates, 1-quietQuartile), len(rates)},
		metric{"p99_ms", "ms", nearestRank(p99s, quietQuartile), len(p99s)}, nil
}

// blockRates returns the throughput of each full block of size
// consecutive completions: size over the time from the previous block's
// last completion to the block's own last (the first block counts from
// the phase's start).
func blockRates(ends []float64, size int) []float64 {
	rates := make([]float64, len(ends)/size)
	prev := 0.0
	for b := range rates {
		last := ends[(b+1)*size-1]
		rates[b] = ratio(float64(size), last-prev)
		prev = last
	}
	return rates
}

// blockPercentiles returns the q-quantile of the latencies of each full
// block of size consecutive units of work.
func blockPercentiles(lat []float64, size int, q float64) ([]float64, error) {
	out := make([]float64, len(lat)/size)
	buf := make([]float64, size)
	for b := range out {
		copy(buf, lat[b*size:(b+1)*size])
		sort.Float64s(buf)
		var err error
		if out[b], err = percentile(buf, q); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// nearestRank returns the element at fraction f (0..1) of the way
// through xs in ascending order, rounding the rank down; xs is not
// reordered.
func nearestRank(xs []float64, f float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[int(f*float64(len(s)-1))]
}

// completionOrder merges per-goroutine records of completed units of
// work into completion order: ends[g][i] is when goroutine g's unit i
// completed (s since the phase began) and lat[g][i] its latency (ms).
func completionOrder(ends, lat [][]float64) (allEnds, allLat []float64) {
	type done struct{ end, lat float64 }
	var all []done
	for g := range ends {
		for i := range ends[g] {
			all = append(all, done{ends[g][i], lat[g][i]})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].end < all[j].end })
	allEnds, allLat = make([]float64, len(all)), make([]float64, len(all))
	for i, d := range all {
		allEnds[i], allLat[i] = d.end, d.lat
	}
	return allEnds, allLat
}
