package sim

import (
	"fmt"
	"math"

	"respat/internal/core"
	"respat/internal/faults"
	"respat/internal/stats"
)

// BaselineResult summarises the unprotected-execution baseline.
type BaselineResult struct {
	// Time samples the completion time across runs.
	Time stats.Sample
	// CorruptShare is the fraction of runs whose final result carries
	// an undetected silent corruption.
	CorruptShare float64
	// Restarts counts fail-stop restarts across all runs.
	Restarts int64
}

// Baseline simulates the do-nothing strategy the paper's patterns are
// measured against: no checkpoints, no verifications. Every fail-stop
// error restarts the whole computation from scratch; silent errors go
// undetected, so any silent error in the final (successful) attempt
// corrupts the result. It quantifies the motivation of Section 1: the
// expected completion time grows exponentially with λf·W, and the
// probability of a *correct* result decays as e^(-λs·W).
func Baseline(work float64, r core.Rates, runs int, seed uint64) (BaselineResult, error) {
	if work <= 0 || math.IsNaN(work) || math.IsInf(work, 0) {
		return BaselineResult{}, fmt.Errorf("sim: baseline work %v", work)
	}
	if err := r.Validate(); err != nil {
		return BaselineResult{}, err
	}
	if runs <= 0 {
		return BaselineResult{}, fmt.Errorf("sim: baseline runs %d", runs)
	}
	var out BaselineResult
	var corrupt int64
	for run := 0; run < runs; run++ {
		s1, s2 := faults.SplitSeed(seed, uint64(run)*2)
		s3, s4 := faults.SplitSeed(seed, uint64(run)*2+1)
		failSrc, err := faults.NewExponential(r.FailStop, s1, s2)
		if err != nil {
			return BaselineResult{}, err
		}
		silentSrc, err := faults.NewExponential(r.Silent, s3, s4)
		if err != nil {
			return BaselineResult{}, err
		}
		fail := faults.NewClock(failSrc)
		silent := faults.NewClock(silentSrc)
		var now float64
		for {
			fdt, hit := fail.Within(work)
			if !hit {
				// The attempt completes; silent errors within it are
				// permanent in the unprotected baseline.
				corrupted := false
				remaining := work
				for {
					sdt, sHit := silent.Within(remaining)
					if !sHit {
						break
					}
					silent.Consume()
					remaining -= sdt
					corrupted = true
				}
				silent.Advance(remaining)
				fail.Advance(work)
				now += work
				if corrupted {
					corrupt++
				}
				break
			}
			// Crash: all progress is lost, including any corruption.
			fail.Consume()
			silent.Advance(fdt)
			now += fdt
			out.Restarts++
		}
		out.Time.Add(now)
	}
	out.CorruptShare = float64(corrupt) / float64(runs)
	return out, nil
}

// BaselineExpectedTime is the closed-form expectation of the baseline:
// E[T] = (e^(λf·W) - 1)/λf with restart-from-scratch (the memoryless
// race to finish W before the next crash), degenerating to W when
// λf = 0.
func BaselineExpectedTime(work float64, r core.Rates) float64 {
	if r.FailStop == 0 {
		return work
	}
	return math.Expm1(r.FailStop*work) / r.FailStop
}

// BaselineCorrectProb is the probability the baseline's result is
// correct: no silent error during the final attempt, e^(-λs·W).
func BaselineCorrectProb(work float64, r core.Rates) float64 {
	return math.Exp(-r.Silent * work)
}
