package sim

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"respat/internal/analytic"
	"respat/internal/core"
)

// TestInvariantDiskCkptsEqualPatterns: each pattern instance commits
// exactly one disk checkpoint (failed attempts are not counted), so
// the campaign total is Runs × Patterns regardless of the error rates.
func TestInvariantDiskCkptsEqualPatterns(t *testing.T) {
	c := testCosts()
	f := func(seed uint64, lfRaw, lsRaw uint16) bool {
		p, err := core.Layout(core.PDMV, 1500, 2, 3, c.Recall)
		if err != nil {
			return false
		}
		res, err := Run(Config{
			Pattern: p, Costs: c,
			Rates: core.Rates{
				FailStop: float64(lfRaw) * 1e-8,
				Silent:   float64(lsRaw) * 1e-8,
			},
			Patterns: 5, Runs: 3, Seed: seed, ErrorsInOps: true,
		})
		if err != nil {
			return false
		}
		return res.Total.DiskCkpts == 15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestInvariantMemCkptsAtLeastSegments: every pattern commits at least
// n memory checkpoints (more when silent-error rollbacks replay
// segments... wait: replays re-execute chunks, not checkpoints of
// *earlier* segments; a segment's checkpoint is taken once per
// successful segment traversal, so re-detections can add more).
func TestInvariantMemCkptsAtLeastSegments(t *testing.T) {
	c := testCosts()
	p := mustLayout(t, core.PDMV, 1500, 3, 2, c.Recall)
	res, err := Run(Config{
		Pattern: p, Costs: c,
		Rates:    core.Rates{FailStop: 1e-4, Silent: 2e-4},
		Patterns: 8, Runs: 10, Seed: 3, ErrorsInOps: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total.MemCkpts < int64(3*8*10) {
		t.Errorf("MemCkpts = %d, want >= %d", res.Total.MemCkpts, 3*8*10)
	}
	if res.Total.GuarVerifs < res.Total.MemCkpts {
		t.Errorf("every memory checkpoint is preceded by a guaranteed verification: %d < %d",
			res.Total.GuarVerifs, res.Total.MemCkpts)
	}
}

// TestInvariantOverheadMonotoneInRates: more errors cannot make the
// same pattern cheaper (in expectation; asserted on means with many
// runs and paired seeds).
func TestInvariantOverheadMonotoneInRates(t *testing.T) {
	c := testCosts()
	p := mustLayout(t, core.PD, 1500, 1, 1, 1)
	prev := -1.0
	for _, scale := range []float64{0, 1, 3, 9} {
		res, err := Run(Config{
			Pattern: p, Costs: c,
			Rates:    core.Rates{FailStop: 3e-5 * scale, Silent: 6e-5 * scale},
			Patterns: 20, Runs: 150, Seed: 5, ErrorsInOps: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Overhead.Mean() <= prev {
			t.Errorf("overhead at scale %v (%v) not above previous (%v)", scale, res.Overhead.Mean(), prev)
		}
		prev = res.Overhead.Mean()
	}
}

// TestInvariantWallTimeAccounting: total time equals work plus all
// operation costs plus lost time — spot-checked via the error-free
// identity and a reconstruction bound under errors.
func TestInvariantWallTimeAccounting(t *testing.T) {
	c := testCosts()
	p := mustLayout(t, core.PDV, 900, 1, 3, c.Recall)
	res, err := Run(Config{
		Pattern: p, Costs: c,
		Rates:    core.Rates{FailStop: 1e-4, Silent: 1e-4},
		Patterns: 10, Runs: 20, Seed: 9, ErrorsInOps: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Lower bound: committed work + committed resilience ops.
	tot := res.Total
	minTime := float64(res.Runs)*float64(res.Patterns)*p.W +
		float64(tot.DiskCkpts)*c.DiskCkpt +
		float64(tot.MemCkpts)*c.MemCkpt +
		float64(tot.PartVerifs)*c.PartVer +
		float64(tot.GuarVerifs)*c.GuarVer +
		float64(tot.DiskRecs)*(c.DiskRec+c.MemRec) +
		float64(tot.MemRecs)*c.MemRec
	total := res.TotalTime()
	if total < minTime {
		t.Errorf("total time %v below accounted floor %v", total, minTime)
	}
	// The gap is re-executed work and partial losses; it cannot exceed
	// one pattern per error plus segment replays, generously bounded:
	maxExtra := float64(tot.FailStop+tot.MemRecs+tot.DetectByPart+tot.DetectByGuar) * (2*p.W + analytic.EF(core.PDV, c, 1, 3))
	if total > minTime+maxExtra {
		t.Errorf("total time %v exceeds ceiling %v", total, minTime+maxExtra)
	}
}

// TestInvariantSilentConservation: every injected silent error is
// eventually detected (leading to a memory recovery), masked by a
// crash, or — in truncated bookkeeping — absorbed into a recovery that
// cleared several corruptions at once. Detections can never exceed
// injections.
func TestInvariantSilentConservation(t *testing.T) {
	c := testCosts()
	rng := rand.New(rand.NewPCG(1, 2))
	for trial := 0; trial < 10; trial++ {
		p := mustLayout(t, core.PDMV, 800+rng.Float64()*2000, 1+rng.IntN(3), 1+rng.IntN(4), c.Recall)
		res, err := Run(Config{
			Pattern: p, Costs: c,
			Rates:    core.Rates{FailStop: 5e-5, Silent: 3e-4},
			Patterns: 10, Runs: 10, Seed: rng.Uint64(), ErrorsInOps: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		detections := res.Total.DetectByPart + res.Total.DetectByGuar
		if detections > res.Total.Silent {
			t.Errorf("detections %d exceed injected silent errors %d", detections, res.Total.Silent)
		}
		if detections+res.Total.SilentMasked > res.Total.Silent {
			t.Errorf("detected+masked %d exceed injected %d",
				detections+res.Total.SilentMasked, res.Total.Silent)
		}
		if detections != res.Total.MemRecs {
			t.Errorf("detections %d != memory recoveries %d", detections, res.Total.MemRecs)
		}
	}
}
