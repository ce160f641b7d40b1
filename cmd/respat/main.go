// Command respat prints the optimal resilience pattern(s) of Table 1
// for a platform, either one of the built-in Table 2 machines or
// custom parameters, and — via -mode — the related-work comparators:
// the classic two-level fail-stop protocol (§4.1 remark) and the
// multilevel hierarchy + silent-error verification patterns.
//
// Usage:
//
//	respat -platform Hera                  # all six families on Hera
//	respat -platform Coastal -pattern PDMV # one family
//	respat -cd 300 -cm 15 -lf 9.46e-7 -ls 3.38e-6
//	respat -platform Hera -exact -campaign-workers 4
//	respat -mode twolevel -lf 9.46e-6 -q 0.8 -cl 15.4 -cd 300
//	respat -mode multilevel -platform Hera -levels 3
//
// With -exact, the per-family exact-model searches fan over
// -campaign-workers goroutines (default GOMAXPROCS), the same
// convention as cmd/experiments.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"respat"
	"respat/internal/analytic"
	"respat/internal/harness"
	"respat/internal/platform"
	"respat/internal/report"
)

func main() {
	var (
		mode     = flag.String("mode", "plan", "plan (Table 1 families), twolevel (§4.1 fail-stop comparator) or multilevel (hierarchy study)")
		platName = flag.String("platform", "", "built-in platform name (Hera, Atlas, Coastal, Coastal-SSD); overrides the cost/rate flags")
		pattern  = flag.String("pattern", "all", "pattern family (PD, PDV*, PDV, PDM, PDMV*, PDMV) or 'all'")
		cd       = flag.Float64("cd", 300, "disk checkpoint cost CD (s)")
		cm       = flag.Float64("cm", 15.4, "memory checkpoint cost CM (s); V*=CM, V=CM/100, RD=CD, RM=CM")
		lf       = flag.Float64("lf", 9.46e-7, "fail-stop error rate lambda_f (/s); the total rate in -mode twolevel")
		ls       = flag.Float64("ls", 3.38e-6, "silent error rate lambda_s (/s)")
		recall   = flag.Float64("recall", 0.8, "partial verification recall r")
		exact    = flag.Bool("exact", false, "also compute the exact-model optimum (slower)")
		// Two-level comparator flags (-mode twolevel): RL=CL, RD=CD.
		localShare = flag.Float64("q", 0.8, "twolevel: probability an error is local")
		localCkpt  = flag.Float64("cl", 15.4, "twolevel: local checkpoint cost CL (s); RL=CL")
		// Multilevel study flag (-mode multilevel).
		levels = flag.Int("levels", 0, "multilevel: hierarchy depth L (0 compares L=1..3)")
		// Parallelism flags follow the repo-wide convention (DESIGN.md
		// §2.3): -campaign-workers fans independent (platform, family)
		// cells over a bounded pool and defaults to GOMAXPROCS.
		campaignWorkers = flag.Int("campaign-workers", runtime.GOMAXPROCS(0), "exact-ablation / multilevel cells computed concurrently (0 = GOMAXPROCS); matches cmd/experiments -campaign-workers")
	)
	flag.Parse()
	var err error
	switch *mode {
	case "plan":
		err = run(*platName, *pattern, *cd, *cm, *lf, *ls, *recall, *exact, *campaignWorkers)
	case "twolevel":
		err = runTwoLevel(*lf, *localShare, *localCkpt, *cd)
	case "multilevel":
		err = runMultilevel(*platName, *levels, *campaignWorkers)
	default:
		err = fmt.Errorf("unknown mode %q (plan, twolevel, multilevel)", *mode)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "respat:", err)
		os.Exit(1)
	}
}

func run(platName, pattern string, cd, cm, lf, ls, recall float64, exact bool, campaignWorkers int) error {
	if campaignWorkers <= 0 {
		campaignWorkers = runtime.GOMAXPROCS(0)
	}
	var costs respat.Costs
	var rates respat.Rates
	name := "custom"
	if platName != "" {
		p, err := platform.ByName(platName)
		if err != nil {
			return err
		}
		costs, rates, name = p.Costs, p.Rates, p.Name
	} else {
		costs = respat.Costs{
			DiskCkpt: cd, MemCkpt: cm, DiskRec: cd, MemRec: cm,
			GuarVer: cm, PartVer: cm / 100, Recall: recall,
		}
		rates = respat.Rates{FailStop: lf, Silent: ls}
	}

	kinds := respat.Kinds()
	if pattern != "all" {
		k, err := respat.ParseKind(pattern)
		if err != nil {
			return err
		}
		kinds = []respat.Kind{k}
	}

	t := report.New(fmt.Sprintf("Optimal patterns for %s (MTBF %.1f h)", name, rates.MTBF()/3600),
		"pattern", "W* (s)", "W* (h)", "n*", "m*", "H* (pred)", "H* (closed form)")
	for _, k := range kinds {
		plan, err := respat.Optimal(k, costs, rates)
		if err != nil {
			return err
		}
		t.AddRow(k.String(), report.Fixed(plan.W, 1), report.Fixed(plan.W/3600, 2),
			report.I(plan.N), report.I(plan.M),
			report.Pct(plan.Overhead, 3),
			report.Pct(analytic.TableOverhead(k, costs, rates), 3))
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}

	if exact {
		rows, err := harness.Ablation([]platform.Platform{{
			Name: name, Nodes: 1, Costs: costs, Rates: rates,
		}}, kinds, campaignWorkers)
		if err != nil {
			return err
		}
		fmt.Println()
		return harness.RenderAblation(rows).Render(os.Stdout)
	}
	return nil
}

// runTwoLevel optimises the §4.1 two-level fail-stop comparator and
// its rate-matched disk-only baseline.
func runTwoLevel(lambda, q, cl, cd float64) error {
	cmp, err := respat.CompareTwoLevel(respat.TwoLevelParams{
		Lambda: lambda, LocalShare: q,
		LocalCkpt: cl, DiskCkpt: cd, LocalRec: cl, DiskRec: cd,
	})
	if err != nil {
		return err
	}
	t := report.New(fmt.Sprintf("Two-level comparator (lambda=%.3g/s, q=%.2f, CL=%g, CD=%g)", lambda, q, cl, cd),
		"protocol", "W* (s)", "n*", "H*")
	t.AddRow("two-level", report.Fixed(cmp.TwoLevel.W, 1), report.I(cmp.TwoLevel.N), report.Pct(cmp.TwoLevel.Overhead, 3))
	t.AddRow("disk-only", report.Fixed(cmp.SingleLevel.W, 1), report.I(cmp.SingleLevel.N), report.Pct(cmp.SingleLevel.Overhead, 3))
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("\nlocal level gain: %.1f%% overhead reduction\n", 100*cmp.Gain)
	return nil
}

// runMultilevel prints the multilevel hierarchy study for a platform:
// the optimal L-level pattern per depth, simulation-validated.
func runMultilevel(platName string, levels, campaignWorkers int) error {
	if platName == "" {
		return fmt.Errorf("-mode multilevel needs -platform")
	}
	p, err := platform.ByName(platName)
	if err != nil {
		return err
	}
	depths := []int{1, 2, 3}
	if levels != 0 {
		depths = []int{levels}
	}
	o := harness.Fast()
	o.CampaignWorkers = campaignWorkers
	o.Workers = 1
	rows, err := harness.MultilevelStudy([]platform.Platform{p}, depths, o)
	if err != nil {
		return err
	}
	if err := harness.RenderMultilevelStudy(rows).Render(os.Stdout); err != nil {
		return err
	}
	// Planner observability: one line per cell, so the cold-path perf
	// claims (seed and leaf probes, candidates pruned, leaves searched,
	// wall time) can be checked without a profiler.
	for _, row := range rows {
		st := row.PlanStats
		fmt.Printf("planner %s L=%d: %v (seedProbes=%d boundProbes=%d leafProbes=%d candidates=%d pruned=%d screened=%d evaluated=%d leaves=%d fallback=%v)\n",
			row.Platform, row.Levels, row.PlanTime.Round(10*time.Microsecond),
			st.SeedProbes, st.BoundProbes, st.LeafProbes, st.Candidates, st.Pruned, st.Screened, st.Evaluated, st.Leaves, st.Fallback)
	}
	return nil
}
