package multilevel

import (
	"testing"
	"time"

	"respat/internal/platform"
)

// Budgets for cold Hera plans. L=3 is the BenchmarkMultilevelPlan
// configuration. On a 2-vCPU Xeon VM it measures ~0.2 ms / 16 allocs
// with an 815-probe seed, against ~4.6 ms when the seed ran a nested
// ternary search (83,248 first-order probes); L=4 measures 17 allocs
// with a 2,672-probe seed, against ~180 ms (3.66M probes). A plan runs
// on the calling goroutine with no per-candidate table or worker
// context, so its allocations are a fixed set of scratch slices and
// maps (143 at L=3 when screening fanned out over per-worker
// evaluators and every screened candidate built a boundary table).
// Each full-precision leaf W search takes 11-13 evaluator probes from
// the first-order period, against ~60 for the golden-section search it
// replaced, and each candidate's first-order bound ~4 probes from the
// previous candidate's argmin, against ~10.6 from the seed's m. The
// latency budgets sit far above the current figures and far below the
// old ones, so the test is insensitive to runner noise but fails
// loudly if the cold path regresses; the allocation budgets sit at
// about twice the current counts, and the probe budgets bound exact
// counts, so they catch a seed, bound or leaf regression on any
// machine. The root package's benchmark ceilings hold
// BenchmarkMultilevelPlan, the same L=3 Optimize call, to a tighter
// latency target (5 ms, the mean of 20 or more runs).
var planBudgets = []struct {
	levels        int
	seedProbes    int
	boundProbes   float64 // per candidate
	probesPerLeaf float64
	allocs        float64
	latency       time.Duration
}{
	{levels: 3, seedProbes: 1000, boundProbes: 6, probesPerLeaf: 20, allocs: 45, latency: 25 * time.Millisecond},
	{levels: 4, seedProbes: 3000, boundProbes: 6, probesPerLeaf: 20, allocs: 45, latency: 50 * time.Millisecond},
}

// TestMultilevelPlanBudget is the CI guard on the cold-plan overhaul:
// a cold multilevel plan must stay within the seed-probe, bound-probe,
// leaf-probe, latency and allocation budgets.
func TestMultilevelPlanBudget(t *testing.T) {
	pl, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range planBudgets {
		p, err := FromPlatform(pl, b.levels)
		if err != nil {
			t.Fatal(err)
		}
		pln, err := NewPlanner(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := pln.Plan(); err != nil { // warm the code paths once
			t.Fatal(err)
		}
		st := pln.Stats()
		if st.SeedProbes > b.seedProbes {
			t.Errorf("L=%d seed: %d first-order probes, budget %d", b.levels, st.SeedProbes, b.seedProbes)
		}
		if float64(st.BoundProbes) > b.boundProbes*float64(st.Candidates) {
			t.Errorf("L=%d bounds: %d first-order probes over %d candidates, budget %g per candidate",
				b.levels, st.BoundProbes, st.Candidates, b.boundProbes)
		}
		if leaves := st.Leaves - st.Screened; float64(st.LeafProbes) > b.probesPerLeaf*float64(leaves) {
			t.Errorf("L=%d leaves: %d evaluator probes over %d full-precision leaves, budget %g per leaf",
				b.levels, st.LeafProbes, leaves, b.probesPerLeaf)
		}

		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Optimize(p); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > b.allocs {
			t.Errorf("L=%d cold multilevel plan: %.0f allocs, budget %.0f", b.levels, allocs, b.allocs)
		}

		// Latency: best of 3, so a single scheduler hiccup cannot fail CI.
		best := time.Duration(1<<63 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := Optimize(p); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		if best > b.latency {
			t.Errorf("L=%d cold multilevel plan: %v, budget %v", b.levels, best, b.latency)
		}
	}
}
