package sim

import (
	"math"
	"math/rand/v2"
	"testing"

	"respat/internal/analytic"
	"respat/internal/core"
	"respat/internal/multilevel"
	"respat/internal/platform"
)

// propWorkers are the worker counts the determinism properties sweep.
var propWorkers = []int{1, 2, 3, 7}

// scatteredPlatform returns a Table 2 platform with both error rates
// and every cost scattered x0.5-x2 (log-uniform).
func scatteredPlatform(rng *rand.Rand) platform.Platform {
	plats := platform.Table2()
	pl := plats[rng.IntN(len(plats))]
	c := &pl.Costs
	for _, x := range []*float64{&c.DiskCkpt, &c.MemCkpt, &c.DiskRec, &c.MemRec, &c.GuarVer, &c.PartVer} {
		*x = scatter(rng, *x, 0.5, 2)
	}
	pl.Rates.FailStop = scatter(rng, pl.Rates.FailStop, 0.5, 2)
	pl.Rates.Silent = scatter(rng, pl.Rates.Silent, 0.5, 2)
	return pl
}

// TestRunWorkerInvarianceRandom: for seeded-random seeds, families,
// platforms and ErrorsInOps, Run's Result is bit-identical for every
// worker count.
func TestRunWorkerInvarianceRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 7))
	for trial := 0; trial < 12; trial++ {
		pl := scatteredPlatform(rng)
		kind := core.Kinds()[rng.IntN(6)]
		plan, err := analytic.Optimal(kind, pl.Costs, pl.Rates)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Pattern: plan.Pattern, Costs: pl.Costs, Rates: pl.Rates,
			Patterns: 5, Runs: 9 + rng.IntN(8), Seed: rng.Uint64(), ErrorsInOps: rng.IntN(2) == 0,
		}
		var ref Result
		for i, w := range propWorkers {
			cfg.Workers = w
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				ref = res
			} else if res != ref {
				t.Fatalf("trial %d (%v, seed %d): Workers=%d result differs from Workers=1:\n%+v\nvs\n%+v",
					trial, kind, cfg.Seed, w, res, ref)
			}
		}
	}
}

// TestRunMultilevelWorkerInvarianceRandom is the same property for
// RunMultilevel over seeded-random seeds, platforms and depths.
func TestRunMultilevelWorkerInvarianceRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 7))
	for trial := 0; trial < 8; trial++ {
		levels := 1 + rng.IntN(multilevel.MaxLevels)
		p, err := multilevel.FromPlatform(scatteredPlatform(rng), levels)
		if err != nil {
			t.Fatal(err)
		}
		p.InteriorGuaranteed = rng.IntN(2) == 0
		plan, err := multilevel.FirstOrderPlan(p)
		if err != nil {
			t.Fatal(err)
		}
		cfg := MultilevelConfig{
			Params: p, Spec: plan.Spec, Patterns: 5, Runs: 9 + rng.IntN(8), Seed: rng.Uint64(),
		}
		var ref MultilevelResult
		for i, w := range propWorkers {
			cfg.Workers = w
			res, err := RunMultilevel(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				ref = res
			} else if res != ref {
				t.Fatalf("trial %d (L=%d, seed %d): Workers=%d result differs from Workers=1:\n%+v\nvs\n%+v",
					trial, levels, cfg.Seed, w, res, ref)
			}
		}
	}
}

// modelTolerance is the stated agreement between a simulated mean
// overhead and the exact model: 4 CI95 half-widths (about 8 standard
// errors, so a fixed-seed draw passes unless the two disagree).
const modelTolerance = 4

// TestRunMatchesExactModelRandom: on random valid platforms (Table 2
// rates and costs scattered x0.5-x2), the simulated overhead of every
// family's first-order pattern agrees with analytic's exact evaluator
// within modelTolerance CI95 half-widths, errors striking computations
// only (ErrorsInOps=false, the model's assumption).
func TestRunMatchesExactModelRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 7))
	for trial := 0; trial < 3; trial++ {
		pl := scatteredPlatform(rng)
		for _, kind := range core.Kinds() {
			plan, err := analytic.Optimal(kind, pl.Costs, pl.Rates)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := analytic.ExactExpectedTime(plan.Pattern, pl.Costs, pl.Rates)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(Config{
				Pattern: plan.Pattern, Costs: pl.Costs, Rates: pl.Rates,
				Patterns: 40, Runs: 200, Seed: rng.Uint64(),
			})
			if err != nil {
				t.Fatal(err)
			}
			want := exact/plan.Pattern.W - 1
			got, ci := res.Overhead.Mean(), res.Overhead.CI95()
			if math.Abs(got-want) > modelTolerance*ci {
				t.Errorf("%s %v: simulated overhead %.6f vs exact %.6f, |diff| %.2e > %v x CI95 %.2e",
					pl.Name, kind, got, want, math.Abs(got-want), modelTolerance, ci)
			}
		}
	}
}

// TestRunMultilevelMatchesEvaluatorRandom is the multilevel analogue:
// first-order plans at L=1-4 on random valid platforms against
// multilevel.Evaluator.
func TestRunMultilevelMatchesEvaluatorRandom(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 7))
	for trial := 0; trial < 8; trial++ {
		levels := 1 + trial%multilevel.MaxLevels
		pl := scatteredPlatform(rng)
		p, err := multilevel.FromPlatform(pl, levels)
		if err != nil {
			t.Fatal(err)
		}
		p.InteriorGuaranteed = rng.IntN(2) == 0
		plan, err := multilevel.FirstOrderPlan(p)
		if err != nil {
			t.Fatal(err)
		}
		ev, err := multilevel.NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ev.Overhead(plan.Spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunMultilevel(MultilevelConfig{
			Params: p, Spec: plan.Spec, Patterns: 40, Runs: 200, Seed: rng.Uint64(),
		})
		if err != nil {
			t.Fatal(err)
		}
		got, ci := res.Overhead.Mean(), res.Overhead.CI95()
		if math.Abs(got-want) > modelTolerance*ci {
			t.Errorf("%s L=%d: simulated overhead %.6f vs exact %.6f, |diff| %.2e > %v x CI95 %.2e",
				pl.Name, levels, got, want, math.Abs(got-want), modelTolerance, ci)
		}
	}
}
