// Package harness drives the paper's experiments end to end: it plans
// optimal patterns (Table 1), simulates them (Figures 6-9) and renders
// the results. Every table and figure of the evaluation section has a
// driver here and a bench in the repository root; cmd/experiments
// composes them into the results/ directory.
package harness

import (
	"fmt"

	"respat/internal/analytic"
	"respat/internal/core"
	"respat/internal/faults"
	"respat/internal/optimize"
	"respat/internal/platform"
	"respat/internal/report"
	"respat/internal/sched"
	"respat/internal/sim"
)

// Options sizes a simulation campaign.
type Options struct {
	// Patterns is the number of pattern instances per run (the paper
	// uses 1000).
	Patterns int
	// Runs is the number of Monte-Carlo repetitions (the paper uses
	// 1000).
	Runs int
	// Seed drives all randomness deterministically.
	Seed uint64
	// Workers bounds per-cell simulation parallelism (0 = GOMAXPROCS).
	Workers int
	// CampaignWorkers bounds how many campaign cells — one (platform,
	// family, sweep-point) plan-and-simulate unit of Fig6, WeakScaling,
	// RateSweep or Ablation — are in flight concurrently. 0 and 1 run
	// cells sequentially. Results are bit-identical for any value:
	// each cell derives its seed from (Seed, cell index) alone and
	// writes only its own output row. When cells are fanned out, keep
	// Workers small (e.g. 1) to avoid goroutine oversubscription.
	CampaignWorkers int
}

// cellSeed derives the deterministic simulation seed of campaign cell
// i, decorrelating the error streams of distinct cells.
func (o Options) cellSeed(i int) uint64 {
	s, _ := faults.SplitSeed(o.Seed, uint64(i))
	return s
}

// mapCells runs cell over every element of cells on the shared bounded
// pool of internal/sched and collects the results in cell order.
func mapCells[C, R any](cells []C, workers int, cell func(i int, c C) (R, error)) ([]R, error) {
	return sched.Map(cells, workers, cell)
}

// Fast returns options sized for tests and benches: large enough for
// stable shapes, small enough for seconds-scale wall time.
func Fast() Options { return Options{Patterns: 60, Runs: 24, Seed: 1} }

// Medium returns a campaign sized for minutes-scale regeneration with
// tight confidence intervals.
func Medium() Options { return Options{Patterns: 300, Runs: 150, Seed: 1} }

// Full returns the paper-scale campaign: 1000 patterns × 1000 runs.
func Full() Options { return Options{Patterns: 1000, Runs: 1000, Seed: 1} }

func (o Options) withDefaults() Options {
	if o.Patterns <= 0 {
		o.Patterns = 60
	}
	if o.Runs <= 0 {
		o.Runs = 24
	}
	return o
}

// simulate plans nothing: it runs the given pattern on the given
// parameters with the reference-simulator semantics (fail-stop errors
// everywhere, silent errors in computation), under the given cell seed.
func simulate(pat core.Pattern, c core.Costs, r core.Rates, o Options, seed uint64) (sim.Result, error) {
	return sim.Run(sim.Config{
		Pattern:     pat,
		Costs:       c,
		Rates:       r,
		Patterns:    o.Patterns,
		Runs:        o.Runs,
		Seed:        seed,
		ErrorsInOps: true,
		Workers:     o.Workers,
	})
}

// Table1Row is one (platform, family) instantiation of Table 1.
type Table1Row struct {
	Platform string
	Plan     analytic.Plan
	// ContinuousOverhead is the closed-form H* of Table 1 before
	// integer rounding.
	ContinuousOverhead float64
}

// Table1 instantiates the Table 1 formulas on each platform.
func Table1(platforms []platform.Platform) ([]Table1Row, error) {
	var rows []Table1Row
	for _, p := range platforms {
		for _, k := range core.Kinds() {
			plan, err := analytic.Optimal(k, p.Costs, p.Rates)
			if err != nil {
				return nil, fmt.Errorf("harness: %s/%v: %w", p.Name, k, err)
			}
			rows = append(rows, Table1Row{
				Platform:           p.Name,
				Plan:               plan,
				ContinuousOverhead: analytic.TableOverhead(k, p.Costs, p.Rates),
			})
		}
	}
	return rows, nil
}

// RenderTable1 renders Table 1 rows.
func RenderTable1(rows []Table1Row) *report.Table {
	t := report.New("Table 1: optimal patterns (integer-rounded first-order solution)",
		"platform", "pattern", "W* (s)", "W* (h)", "n*", "m*", "H* (pred)", "H* (closed form)")
	for _, r := range rows {
		t.AddRow(r.Platform, r.Plan.Kind.String(),
			report.Fixed(r.Plan.W, 1), report.Fixed(r.Plan.W/3600, 2),
			report.I(r.Plan.N), report.I(r.Plan.M),
			report.Pct(r.Plan.Overhead, 2), report.Pct(r.ContinuousOverhead, 2))
	}
	return t
}

// Table2Row reports the embedded platform parameters and the derived
// MTBF figures quoted in Section 6.
type Table2Row struct {
	Platform        platform.Platform
	FailMTBFDays    float64
	SilentMTBFDays  float64
	NodeFailYears   float64
	NodeSilentYears float64
}

// Table2 derives the Section 6 platform figures.
func Table2() []Table2Row {
	var rows []Table2Row
	for _, p := range platform.Table2() {
		fs, s := p.PerNodeMTBFYears()
		rows = append(rows, Table2Row{
			Platform:        p,
			FailMTBFDays:    p.FailStopMTBFDays(),
			SilentMTBFDays:  p.SilentMTBFDays(),
			NodeFailYears:   fs,
			NodeSilentYears: s,
		})
	}
	return rows
}

// RenderTable2 renders the platform table.
func RenderTable2(rows []Table2Row) *report.Table {
	t := report.New("Table 2: platforms (with derived MTBFs)",
		"platform", "nodes", "lambda_f (/s)", "lambda_s (/s)", "CD (s)", "CM (s)",
		"MTBF_f (days)", "MTBF_s (days)", "node MTBF_f (y)", "node MTBF_s (y)")
	for _, r := range rows {
		p := r.Platform
		t.AddRow(p.Name, report.I(p.Nodes),
			report.F(p.Rates.FailStop, 3), report.F(p.Rates.Silent, 3),
			report.Fixed(p.Costs.DiskCkpt, 0), report.Fixed(p.Costs.MemCkpt, 1),
			report.Fixed(r.FailMTBFDays, 1), report.Fixed(r.SilentMTBFDays, 1),
			report.Fixed(r.NodeFailYears, 2), report.Fixed(r.NodeSilentYears, 2))
	}
	return t
}

// Fig6Row is one bar group of Figure 6: one pattern family on one
// platform, with the five metrics of sub-figures (a)-(e).
type Fig6Row struct {
	Platform  string
	Kind      core.Kind
	Plan      analytic.Plan
	Predicted float64 // H* from Table 1 (Fig 6a blue)
	Simulated float64 // Monte-Carlo overhead (Fig 6a yellow)
	SimCI95   float64
	// Fig 6b: pattern period in hours.
	PeriodHours float64
	// Fig 6c/6d: operations per simulated hour.
	DiskCkptsPerHour float64
	MemCkptsPerHour  float64
	VerifsPerHour    float64
	// Fig 6e: recoveries per simulated day.
	DiskRecsPerDay float64
	MemRecsPerDay  float64
}

// Fig6 runs the Section 6.2 experiment: the six optimal patterns on
// each platform. Cells are fanned over o.CampaignWorkers.
func Fig6(platforms []platform.Platform, o Options) ([]Fig6Row, error) {
	o = o.withDefaults()
	type cellSpec struct {
		p platform.Platform
		k core.Kind
	}
	var cells []cellSpec
	for _, p := range platforms {
		for _, k := range core.Kinds() {
			cells = append(cells, cellSpec{p: p, k: k})
		}
	}
	return mapCells(cells, o.CampaignWorkers, func(i int, cs cellSpec) (Fig6Row, error) {
		p, k := cs.p, cs.k
		plan, err := analytic.Optimal(k, p.Costs, p.Rates)
		if err != nil {
			return Fig6Row{}, fmt.Errorf("harness: %s/%v: %w", p.Name, k, err)
		}
		res, err := simulate(plan.Pattern, p.Costs, p.Rates, o, o.cellSeed(i))
		if err != nil {
			return Fig6Row{}, fmt.Errorf("harness: %s/%v: %w", p.Name, k, err)
		}
		return Fig6Row{
			Platform:         p.Name,
			Kind:             k,
			Plan:             plan,
			Predicted:        plan.Overhead,
			Simulated:        res.Overhead.Mean(),
			SimCI95:          res.Overhead.CI95(),
			PeriodHours:      plan.W / 3600,
			DiskCkptsPerHour: res.PerHour(res.Total.DiskCkpts),
			MemCkptsPerHour:  res.PerHour(res.Total.MemCkpts),
			VerifsPerHour:    res.PerHour(res.Total.Verifs()),
			DiskRecsPerDay:   res.PerDay(res.Total.DiskRecs),
			MemRecsPerDay:    res.PerDay(res.Total.MemRecs),
		}, nil
	})
}

// RenderFig6 renders the Figure 6 metrics.
func RenderFig6(rows []Fig6Row) *report.Table {
	t := report.New("Figure 6: patterns on real platforms (a: overheads, b: periods, c/d: ckpt+verif rates, e: recovery rates)",
		"platform", "pattern", "H* pred", "H* sim", "±95%", "period (h)",
		"disk ckpt/h", "mem ckpt/h", "verifs/h", "disk rec/day", "mem rec/day")
	for _, r := range rows {
		t.AddRow(r.Platform, r.Kind.String(),
			report.Pct(r.Predicted, 2), report.Pct(r.Simulated, 2), report.Pct(r.SimCI95, 2),
			report.Fixed(r.PeriodHours, 2),
			report.Fixed(r.DiskCkptsPerHour, 3), report.Fixed(r.MemCkptsPerHour, 3),
			report.Fixed(r.VerifsPerHour, 2),
			report.Fixed(r.DiskRecsPerDay, 3), report.Fixed(r.MemRecsPerDay, 3))
	}
	return t
}

// WeakRow is one point of the Figures 7/8 weak-scaling study.
type WeakRow struct {
	Nodes     int
	Kind      core.Kind
	Plan      analytic.Plan
	Predicted float64
	Simulated float64
	SimCI95   float64
	// Fig 7b: period in hours.
	PeriodHours float64
	// Fig 7c: recoveries per pattern.
	DiskRecsPerPattern float64
	MemRecsPerPattern  float64
	// Fig 7d/7e: operations per hour.
	DiskCkptsPerHour float64
	MemCkptsPerHour  float64
	VerifsPerHour    float64
	// Fig 7f: recoveries per day.
	DiskRecsPerDay float64
	MemRecsPerDay  float64
}

// WeakScaling runs the Section 6.3 experiment: Hera's per-node MTBFs
// extrapolated to each node count, with CD and CM overridden (the
// paper uses CD=300/CM=15 for Figure 7 and CD=90/CM=15 for Figure 8),
// for the given pattern families (the paper compares PD and PDMV).
func WeakScaling(nodeCounts []int, cd, cm float64, kinds []core.Kind, o Options) ([]WeakRow, error) {
	o = o.withDefaults()
	hera, err := platform.ByName("Hera")
	if err != nil {
		return nil, err
	}
	base := hera.WithDiskCost(cd).WithMemCost(cm)
	type cellSpec struct {
		p platform.Platform
		k core.Kind
	}
	var cells []cellSpec
	for _, nodes := range nodeCounts {
		p, err := base.WeakScale(nodes)
		if err != nil {
			return nil, err
		}
		for _, k := range kinds {
			cells = append(cells, cellSpec{p: p, k: k})
		}
	}
	return mapCells(cells, o.CampaignWorkers, func(i int, cs cellSpec) (WeakRow, error) {
		p, k := cs.p, cs.k
		plan, err := analytic.Optimal(k, p.Costs, p.Rates)
		if err != nil {
			return WeakRow{}, fmt.Errorf("harness: %d nodes/%v: %w", p.Nodes, k, err)
		}
		res, err := simulate(plan.Pattern, p.Costs, p.Rates, o, o.cellSeed(i))
		if err != nil {
			return WeakRow{}, fmt.Errorf("harness: %d nodes/%v: %w", p.Nodes, k, err)
		}
		return WeakRow{
			Nodes:              p.Nodes,
			Kind:               k,
			Plan:               plan,
			Predicted:          plan.Overhead,
			Simulated:          res.Overhead.Mean(),
			SimCI95:            res.Overhead.CI95(),
			PeriodHours:        plan.W / 3600,
			DiskRecsPerPattern: res.PerPattern(res.Total.DiskRecs),
			MemRecsPerPattern:  res.PerPattern(res.Total.MemRecs),
			DiskCkptsPerHour:   res.PerHour(res.Total.DiskCkpts),
			MemCkptsPerHour:    res.PerHour(res.Total.MemCkpts),
			VerifsPerHour:      res.PerHour(res.Total.Verifs()),
			DiskRecsPerDay:     res.PerDay(res.Total.DiskRecs),
			MemRecsPerDay:      res.PerDay(res.Total.MemRecs),
		}, nil
	})
}

// RenderWeakScaling renders Figures 7/8 rows.
func RenderWeakScaling(title string, rows []WeakRow) *report.Table {
	t := report.New(title,
		"nodes", "pattern", "H* pred", "H* sim", "±95%", "period (h)",
		"disk rec/pattern", "mem rec/pattern", "disk ckpt/h", "mem ckpt/h",
		"verifs/h", "disk rec/day", "mem rec/day")
	for _, r := range rows {
		t.AddRow(report.I(r.Nodes), r.Kind.String(),
			report.Pct(r.Predicted, 1), report.Pct(r.Simulated, 1), report.Pct(r.SimCI95, 1),
			report.Fixed(r.PeriodHours, 3),
			report.Fixed(r.DiskRecsPerPattern, 3), report.Fixed(r.MemRecsPerPattern, 3),
			report.Fixed(r.DiskCkptsPerHour, 2), report.Fixed(r.MemCkptsPerHour, 2),
			report.Fixed(r.VerifsPerHour, 1),
			report.Fixed(r.DiskRecsPerDay, 2), report.Fixed(r.MemRecsPerDay, 2))
	}
	return t
}

// RatePoint is one cell of the Figure 9 error-rate study: the Hera
// platform scaled to a node count, with both rates multiplied by the
// given factors.
type RatePoint struct {
	FailFactor   float64
	SilentFactor float64
	Kind         core.Kind
	Plan         analytic.Plan
	Simulated    float64
	SimCI95      float64
	// Period in minutes (Fig 9d/9h).
	PeriodMinutes float64
	// Operations per hour (Fig 9e/9f/9i/9j).
	DiskCkptsPerHour float64
	MemCkptsPerHour  float64
	VerifsPerHour    float64
	// Recoveries per day (Fig 9g/9k).
	DiskRecsPerDay float64
	MemRecsPerDay  float64
}

// RateSweep runs the Section 6.4 experiment at the given node count
// (the paper uses 10^5 Hera nodes): for each (failFactor, silentFactor)
// pair and each family, the optimal pattern is re-planned and
// simulated. Pass a full grid for Figures 9a-9c or a single-axis sweep
// (the other factor pinned to 1) for Figures 9d-9k.
func RateSweep(nodes int, pairs [][2]float64, kinds []core.Kind, o Options) ([]RatePoint, error) {
	o = o.withDefaults()
	hera, err := platform.ByName("Hera")
	if err != nil {
		return nil, err
	}
	base, err := hera.WeakScale(nodes)
	if err != nil {
		return nil, err
	}
	type cellSpec struct {
		pair [2]float64
		k    core.Kind
	}
	var cells []cellSpec
	for _, pair := range pairs {
		for _, k := range kinds {
			cells = append(cells, cellSpec{pair: pair, k: k})
		}
	}
	return mapCells(cells, o.CampaignWorkers, func(i int, cs cellSpec) (RatePoint, error) {
		pair, k := cs.pair, cs.k
		p := base.ScaleRates(pair[0], pair[1])
		plan, err := analytic.Optimal(k, p.Costs, p.Rates)
		if err != nil {
			return RatePoint{}, fmt.Errorf("harness: rates %vx/%vx %v: %w", pair[0], pair[1], k, err)
		}
		res, err := simulate(plan.Pattern, p.Costs, p.Rates, o, o.cellSeed(i))
		if err != nil {
			return RatePoint{}, fmt.Errorf("harness: rates %vx/%vx %v: %w", pair[0], pair[1], k, err)
		}
		return RatePoint{
			FailFactor:       pair[0],
			SilentFactor:     pair[1],
			Kind:             k,
			Plan:             plan,
			Simulated:        res.Overhead.Mean(),
			SimCI95:          res.Overhead.CI95(),
			PeriodMinutes:    plan.W / 60,
			DiskCkptsPerHour: res.PerHour(res.Total.DiskCkpts),
			MemCkptsPerHour:  res.PerHour(res.Total.MemCkpts),
			VerifsPerHour:    res.PerHour(res.Total.Verifs()),
			DiskRecsPerDay:   res.PerDay(res.Total.DiskRecs),
			MemRecsPerDay:    res.PerDay(res.Total.MemRecs),
		}, nil
	})
}

// Grid builds the full factor grid factors×factors for Figures 9a-9c.
func Grid(factors []float64) [][2]float64 {
	var out [][2]float64
	for _, ff := range factors {
		for _, fs := range factors {
			out = append(out, [2]float64{ff, fs})
		}
	}
	return out
}

// AxisFail pins the silent factor to 1 and sweeps the fail-stop factor
// (Figures 9d-9g).
func AxisFail(factors []float64) [][2]float64 {
	out := make([][2]float64, len(factors))
	for i, f := range factors {
		out[i] = [2]float64{f, 1}
	}
	return out
}

// AxisSilent pins the fail-stop factor to 1 and sweeps the silent
// factor (Figures 9h-9k).
func AxisSilent(factors []float64) [][2]float64 {
	out := make([][2]float64, len(factors))
	for i, f := range factors {
		out[i] = [2]float64{1, f}
	}
	return out
}

// RenderRateSweep renders Figure 9 points.
func RenderRateSweep(title string, pts []RatePoint) *report.Table {
	t := report.New(title,
		"lambda_f x", "lambda_s x", "pattern", "H* sim", "±95%", "period (min)",
		"disk ckpt/h", "mem ckpt/h", "verifs/h", "disk rec/day", "mem rec/day")
	for _, p := range pts {
		t.AddRow(report.Fixed(p.FailFactor, 1), report.Fixed(p.SilentFactor, 1), p.Kind.String(),
			report.Pct(p.Simulated, 1), report.Pct(p.SimCI95, 1),
			report.Fixed(p.PeriodMinutes, 1),
			report.Fixed(p.DiskCkptsPerHour, 2), report.Fixed(p.MemCkptsPerHour, 2),
			report.Fixed(p.VerifsPerHour, 1),
			report.Fixed(p.DiskRecsPerDay, 2), report.Fixed(p.MemRecsPerDay, 2))
	}
	return t
}

// AblationRow compares the first-order plan with the exact-model plan
// (not in the paper; quantifies the quality of its approximation).
type AblationRow struct {
	Platform string
	Cmp      optimize.Comparison
}

// Ablation runs optimize.Compare on each (platform, family), fanning
// the comparisons over workers (0 or 1 = sequential).
func Ablation(platforms []platform.Platform, kinds []core.Kind, workers int) ([]AblationRow, error) {
	type cellSpec struct {
		p platform.Platform
		k core.Kind
	}
	var cells []cellSpec
	for _, p := range platforms {
		for _, k := range kinds {
			cells = append(cells, cellSpec{p: p, k: k})
		}
	}
	return mapCells(cells, workers, func(_ int, cs cellSpec) (AblationRow, error) {
		p, k := cs.p, cs.k
		cmp, err := optimize.Compare(k, p.Costs, p.Rates)
		if err != nil {
			return AblationRow{}, fmt.Errorf("harness: ablation %s/%v: %w", p.Name, k, err)
		}
		return AblationRow{Platform: p.Name, Cmp: cmp}, nil
	})
}

// RenderAblation renders the planner comparison.
func RenderAblation(rows []AblationRow) *report.Table {
	t := report.New("Ablation: first-order plan vs exact-model plan",
		"platform", "pattern", "W* first", "W* exact", "n/m first", "n/m exact",
		"H exact-of-first", "H exact-optimal", "regret")
	for _, r := range rows {
		c := r.Cmp
		t.AddRow(r.Platform, c.Kind.String(),
			report.Fixed(c.FirstOrder.W, 0), report.Fixed(c.Exact.W, 0),
			fmt.Sprintf("%d/%d", c.FirstOrder.N, c.FirstOrder.M),
			fmt.Sprintf("%d/%d", c.Exact.N, c.Exact.M),
			report.Pct(c.FirstOrderExactOverhead, 3), report.Pct(c.Exact.Overhead, 3),
			report.Pct(c.Regret, 4))
	}
	return t
}
