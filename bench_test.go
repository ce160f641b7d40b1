// Benchmarks regenerating the paper's tables and figures, one target
// per artefact (see DESIGN.md §4 and EXPERIMENTS.md). The benchmark
// bodies run reduced-size campaigns so `go test -bench=.` completes in
// minutes; cmd/experiments -mode full reproduces the paper-scale runs.
// Custom metrics report the headline quantity of each artefact (e.g.
// simulated overhead) so shapes are visible straight from the bench
// output.
package respat_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"respat"
	"respat/internal/analytic"
	"respat/internal/cluster"
	"respat/internal/core"
	"respat/internal/harness"
	"respat/internal/multilevel"
	"respat/internal/obs"
	"respat/internal/optimize"
	"respat/internal/platform"
	"respat/internal/service"
	"respat/internal/twolevel"
)

// ceilings is the mean time per op each of seven benchmarks may take.
// Each calls holdCeiling after its loop, which checks only runs of at
// least ceilingMinN iterations: CI's `go test -run '^$' -bench .
// -benchtime 20x .` enforces every ceiling, while a 1x run and `go
// test ./...` enforce none. The mean of one iteration carries
// goroutine start-up and first-call noise as large as the ceilings.
var ceilings = map[string]time.Duration{
	"BenchmarkMultilevelPlan":  5 * time.Millisecond,
	"BenchmarkSimulatePattern": 30 * time.Microsecond,
	"BenchmarkFleetSmall":      25 * time.Millisecond,
	"BenchmarkServicePlanHot":  2500 * time.Nanosecond, // the admission gate stays off the hit path
	"BenchmarkRingRoute":       1000 * time.Nanosecond, // the owner lookup stays off the hot path
	"BenchmarkTraceRecord":     10 * time.Microsecond,  // the sampled-trace overhead
	"BenchmarkPromScrape":      2 * time.Millisecond,   // the exposition render
}

// ceilingMinN is the fewest iterations whose mean holdCeiling checks.
const ceilingMinN = 20

// holdCeiling fails b when its mean time per op so far exceeds its
// entry in ceilings, once b.N reaches ceilingMinN.
func holdCeiling(b *testing.B) {
	b.Helper()
	limit, ok := ceilings[b.Name()]
	if !ok {
		b.Fatalf("%s has no entry in ceilings", b.Name())
	}
	if b.N < ceilingMinN {
		return
	}
	if mean := b.Elapsed() / time.Duration(b.N); mean > limit {
		b.Errorf("%v per op over %d iterations, ceiling %v", mean, b.N, limit)
	}
}

// benchOpts is deliberately small; shapes remain stable because the
// seed is fixed. Campaign cells fan over all cores with one simulation
// goroutine per cell; results are bit-identical for any worker split.
func benchOpts() harness.Options {
	return harness.Options{
		Patterns: 30, Runs: 8, Seed: 1,
		Workers: 1, CampaignWorkers: runtime.GOMAXPROCS(0),
	}
}

func pick6(b *testing.B, rows []harness.Fig6Row, k core.Kind) harness.Fig6Row {
	b.Helper()
	for _, r := range rows {
		if r.Kind == k {
			return r
		}
	}
	b.Fatalf("missing %v", k)
	return harness.Fig6Row{}
}

// BenchmarkTable1Plans regenerates Table 1 (all six families on all
// four platforms) per iteration.
func BenchmarkTable1Plans(b *testing.B) {
	var rows []harness.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.Table1(platform.Table2())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*rows[0].Plan.Overhead, "Hera-PD-H*-%")
	b.ReportMetric(100*rows[5].Plan.Overhead, "Hera-PDMV-H*-%")
}

// BenchmarkTable2Derived regenerates the Table 2 derived MTBF figures.
func BenchmarkTable2Derived(b *testing.B) {
	var rows []harness.Table2Row
	for i := 0; i < b.N; i++ {
		rows = harness.Table2()
	}
	b.ReportMetric(rows[0].FailMTBFDays, "Hera-MTBFf-days")
	b.ReportMetric(rows[0].SilentMTBFDays, "Hera-MTBFs-days")
}

// BenchmarkFig6Overhead regenerates Figure 6a on Hera: predicted vs
// simulated overhead for all six families.
func BenchmarkFig6Overhead(b *testing.B) {
	hera := mustPlatform(b, "Hera")
	var rows []harness.Fig6Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.Fig6([]platform.Platform{hera}, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*pick6(b, rows, core.PD).Simulated, "PD-sim-%")
	b.ReportMetric(100*pick6(b, rows, core.PDMV).Simulated, "PDMV-sim-%")
	b.ReportMetric(100*pick6(b, rows, core.PDMV).Predicted, "PDMV-pred-%")
}

// BenchmarkFig6Periods regenerates Figure 6b: the optimal periods of
// all patterns on all platforms (analytic).
func BenchmarkFig6Periods(b *testing.B) {
	var rows []harness.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.Table1(platform.Table2())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Plan.W/3600, "Hera-PD-hours")
	b.ReportMetric(rows[5].Plan.W/3600, "Hera-PDMV-hours")
}

// BenchmarkFig6Verifs regenerates Figure 6c on Hera: checkpoint and
// verification frequencies of the partial-verification pattern.
func BenchmarkFig6Verifs(b *testing.B) {
	hera := mustPlatform(b, "Hera")
	var rows []harness.Fig6Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.Fig6([]platform.Platform{hera}, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pick6(b, rows, core.PDV).VerifsPerHour, "PDV-verifs/h")
	b.ReportMetric(pick6(b, rows, core.PDMV).VerifsPerHour, "PDMV-verifs/h")
}

// BenchmarkFig6Ckpts regenerates Figure 6d on Hera: checkpointing
// frequencies of the two-level patterns.
func BenchmarkFig6Ckpts(b *testing.B) {
	hera := mustPlatform(b, "Hera")
	var rows []harness.Fig6Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.Fig6([]platform.Platform{hera}, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pick6(b, rows, core.PDMV).DiskCkptsPerHour, "PDMV-disk/h")
	b.ReportMetric(pick6(b, rows, core.PDMV).MemCkptsPerHour, "PDMV-mem/h")
}

// BenchmarkFig6Recoveries regenerates Figure 6e on Hera: recovery
// frequencies.
func BenchmarkFig6Recoveries(b *testing.B) {
	hera := mustPlatform(b, "Hera")
	var rows []harness.Fig6Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.Fig6([]platform.Platform{hera}, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(pick6(b, rows, core.PDMV).DiskRecsPerDay, "PDMV-diskrec/day")
	b.ReportMetric(pick6(b, rows, core.PDMV).MemRecsPerDay, "PDMV-memrec/day")
}

// BenchmarkFig7WeakScaling regenerates Figure 7 (CD=300, CM=15):
// overhead growth of PD vs PDMV with the node count.
func BenchmarkFig7WeakScaling(b *testing.B) {
	kinds := []core.Kind{core.PD, core.PDMV}
	var rows []harness.WeakRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.WeakScaling([]int{1 << 10, 1 << 14}, 300, 15, kinds, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Nodes == 1<<14 {
			b.ReportMetric(100*r.Simulated, r.Kind.String()+"-16k-sim-%")
		}
	}
}

// BenchmarkFig8WeakScalingCheapDisk regenerates Figure 8 (CD=90).
func BenchmarkFig8WeakScalingCheapDisk(b *testing.B) {
	kinds := []core.Kind{core.PD, core.PDMV}
	var rows []harness.WeakRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = harness.WeakScaling([]int{1 << 10, 1 << 14}, 90, 15, kinds, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Nodes == 1<<14 {
			b.ReportMetric(100*r.Simulated, r.Kind.String()+"-16k-sim-%")
		}
	}
}

// BenchmarkFig9Surfaces regenerates Figures 9a-9c: the overhead
// surfaces of PD and PDMV over scaled (λf, λs) at 10^5 Hera nodes
// (corner points).
func BenchmarkFig9Surfaces(b *testing.B) {
	kinds := []core.Kind{core.PD, core.PDMV}
	grid := harness.Grid([]float64{0.2, 2})
	var pts []harness.RatePoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = harness.RateSweep(100000, grid, kinds, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		if p.FailFactor == 2 && p.SilentFactor == 2 {
			b.ReportMetric(100*p.Simulated, p.Kind.String()+"-2x2x-sim-%")
		}
	}
}

// BenchmarkFig9FailStopSweep regenerates Figures 9d-9g: the λf sweep
// at nominal λs.
func BenchmarkFig9FailStopSweep(b *testing.B) {
	kinds := []core.Kind{core.PD, core.PDMV}
	var pts []harness.RatePoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = harness.RateSweep(100000, harness.AxisFail([]float64{0.2, 2}), kinds, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		if p.Kind == core.PDMV {
			b.ReportMetric(p.PeriodMinutes, "PDMV-period-min@"+formatFactor(p.FailFactor))
		}
	}
}

// BenchmarkFig9SilentSweep regenerates Figures 9h-9k: the λs sweep at
// nominal λf.
func BenchmarkFig9SilentSweep(b *testing.B) {
	kinds := []core.Kind{core.PD, core.PDMV}
	var pts []harness.RatePoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = harness.RateSweep(100000, harness.AxisSilent([]float64{0.2, 2}), kinds, benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		if p.Kind == core.PD {
			b.ReportMetric(p.PeriodMinutes, "PD-period-min@"+formatFactor(p.SilentFactor))
		}
	}
}

// BenchmarkAblationPlanners compares the first-order and exact-model
// planners on Hera (not a paper artefact; quantifies the approximation).
func BenchmarkAblationPlanners(b *testing.B) {
	hera := mustPlatform(b, "Hera")
	var cmp optimize.Comparison
	for i := 0; i < b.N; i++ {
		var err error
		cmp, err = optimize.Compare(core.PDMV, hera.Costs, hera.Rates)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*cmp.Regret, "regret-%")
}

// BenchmarkTwoLevelComparator optimises the related-work two-level
// fail-stop protocol numerically (§4.1 remark: no closed form exists)
// and reports its overhead next to the closed-form PDM solution for a
// rate-matched configuration.
func BenchmarkTwoLevelComparator(b *testing.B) {
	p := twolevel.Params{
		Lambda: 9.46e-7, LocalShare: 0.8,
		LocalCkpt: 15.4, DiskCkpt: 300, LocalRec: 15.4, DiskRec: 300,
	}
	var plan twolevel.Plan
	for i := 0; i < b.N; i++ {
		var err error
		plan, err = twolevel.Optimize(p)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*plan.Overhead, "twolevel-H*-%")
	b.ReportMetric(float64(plan.N), "twolevel-n*")
}

// BenchmarkMultilevelPlan optimises the 3-level hierarchy pattern for
// Hera (internal/multilevel): the full (W, n_1..n_L, m) search through
// the shared exact evaluator.
func BenchmarkMultilevelPlan(b *testing.B) {
	hera := mustPlatform(b, "Hera")
	params, err := multilevel.FromPlatform(hera, 3)
	if err != nil {
		b.Fatal(err)
	}
	var plan multilevel.Plan
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		plan, err = multilevel.Optimize(params)
		if err != nil {
			b.Fatal(err)
		}
	}
	holdCeiling(b)
	b.ReportMetric(100*plan.Overhead, "H*-%")
	b.ReportMetric(float64(plan.Spec.Counts[0]), "n1*")
}

// BenchmarkMultilevelEvaluator measures one exact expected-time
// evaluation of a 3-level spec through a reused evaluator — the inner
// loop of the multilevel planner's leaf W search.
func BenchmarkMultilevelEvaluator(b *testing.B) {
	hera := mustPlatform(b, "Hera")
	params, err := multilevel.FromPlatform(hera, 3)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := multilevel.Optimize(params)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := multilevel.NewEvaluator(params)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.ExpectedTime(plan.Spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceMultilevelHot measures the multilevel endpoint's
// cache-hit path — canonical level-vector key encoding plus the
// sharded cache lookup. The contract extends DESIGN.md §2.4 to the new
// pattern family: 0 allocs/op (gated in CI by
// TestMultilevelHotPathZeroAlloc).
func BenchmarkServiceMultilevelHot(b *testing.B) {
	hera := mustPlatform(b, "Hera")
	params, err := multilevel.FromPlatform(hera, 3)
	if err != nil {
		b.Fatal(err)
	}
	svc := service.New(service.Config{})
	if _, err := svc.PlanMultilevel(params); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.PlanMultilevel(params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceMultilevelCold measures the multilevel endpoint's
// cold path: every iteration perturbs the top level's checkpoint cost
// so the key is new and the full Hera L=3 search runs through
// Service.PlanMultilevel, on a planner built for that configuration.
func BenchmarkServiceMultilevelCold(b *testing.B) {
	hera := mustPlatform(b, "Hera")
	params, err := multilevel.FromPlatform(hera, 3)
	if err != nil {
		b.Fatal(err)
	}
	svc := service.New(service.Config{Capacity: 1 << 22})
	top := &params.Levels[len(params.Levels)-1]
	ckpt := top.Ckpt
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top.Ckpt = ckpt + float64(i)*1e-6
		if _, err := svc.PlanMultilevel(params); err != nil {
			b.Fatal(err)
		}
	}
}

// Micro-benchmarks for the core primitives.

func BenchmarkOptimalPlan(b *testing.B) {
	hera := mustPlatform(b, "Hera")
	for i := 0; i < b.N; i++ {
		if _, err := analytic.Optimal(core.PDMV, hera.Costs, hera.Rates); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExactExpectedTime(b *testing.B) {
	hera := mustPlatform(b, "Hera")
	plan, err := analytic.Optimal(core.PDMV, hera.Costs, hera.Rates)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analytic.ExactExpectedTime(plan.Pattern, hera.Costs, hera.Rates); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluatorEval measures one exact expected-time evaluation
// through a reused analytic.Evaluator, the inner loop of the exact
// planner's golden-section search.
func BenchmarkEvaluatorEval(b *testing.B) {
	hera := mustPlatform(b, "Hera")
	plan, err := analytic.Optimal(core.PDMV, hera.Costs, hera.Rates)
	if err != nil {
		b.Fatal(err)
	}
	ev, err := analytic.NewEvaluator(hera.Costs, hera.Rates)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ev.EvalLayout(core.PDMV, plan.N, plan.M, plan.W); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatePattern(b *testing.B) {
	hera := mustPlatform(b, "Hera")
	plan, err := analytic.Optimal(core.PDMV, hera.Costs, hera.Rates)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := respat.Simulate(respat.SimConfig{
			Pattern: plan.Pattern, Costs: hera.Costs, Rates: hera.Rates,
			Patterns: 10, Runs: 1, Seed: uint64(i), ErrorsInOps: true, Workers: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	holdCeiling(b)
}

// BenchmarkSimulateMultilevel runs a multilevel Monte-Carlo campaign
// on one worker: Hera's 3-level hierarchy under its first-order plan,
// 100 pattern instances x 40 runs per iteration — the multilevel
// simulator rung beside BenchmarkSimulatePattern.
func BenchmarkSimulateMultilevel(b *testing.B) {
	hera := mustPlatform(b, "Hera")
	params, err := multilevel.FromPlatform(hera, 3)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := multilevel.FirstOrderPlan(params)
	if err != nil {
		b.Fatal(err)
	}
	var overhead float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := respat.SimulateMultilevel(respat.MultilevelSimConfig{
			Params: params, Spec: plan.Spec,
			Patterns: 100, Runs: 40, Seed: uint64(i), Workers: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		overhead = res.Overhead.Mean()
	}
	b.ReportMetric(100*overhead, "H-%")
}

// BenchmarkFleetSmall runs a whole 500-job fleet campaign per
// iteration — plan, parallel per-job fault injection, FIFO/backfill
// dispatch, reduction (DESIGN.md §2.7) — and reports the cluster
// utilization as the headline metric. Its time is held by ceilings and
// its allocations by TestFleetSmallAllocs, so the fleet path cannot
// silently regress.
func BenchmarkFleetSmall(b *testing.B) {
	hera := mustPlatform(b, "Hera")
	var util float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		util = fleetSmall(b, hera, uint64(i+1))
	}
	holdCeiling(b)
	b.ReportMetric(100*util, "%util")
}

// fleetSmallAllocs bounds the allocations of one BenchmarkFleetSmall
// campaign (~4,530 measured).
const fleetSmallAllocs = 10000

// TestFleetSmallAllocs is the CI guard on BenchmarkFleetSmall's
// allocations: one 500-job campaign allocates at most fleetSmallAllocs
// times.
func TestFleetSmallAllocs(t *testing.T) {
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() { fleetSmall(t, hera, 1) })
	t.Logf("%v allocs per campaign", allocs)
	if allocs > fleetSmallAllocs {
		t.Errorf("a 500-job fleet campaign allocates %v times, budget %d", allocs, fleetSmallAllocs)
	}
}

// fleetSmall runs BenchmarkFleetSmall's campaign at seed and returns
// the cluster utilization.
func fleetSmall(tb testing.TB, hera platform.Platform, seed uint64) float64 {
	res, err := respat.SimulateFleet(respat.FleetConfig{
		Platform: hera, Nodes: 64, Family: core.PDMV,
		NumJobs: 500, Rate: 1.0 / 7200, JobWork: 86400, WorkSpread: 4,
		Backfill: true, Seed: seed,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return res.Utilization
}

// BenchmarkServicePlanHot measures the planning service's cache-hit
// path — canonical key encoding plus the sharded cache lookup — for an
// exact-model plan that is already cached, with tracing compiled in
// and sampling enabled exactly as respatd runs it. Each iteration pays
// the full per-request trace lifecycle (Start → traced lookup →
// Finish) on the unsampled branch, the overwhelmingly common case. The
// contract (DESIGN.md §2.4 and §2.10) is 0 allocs/op and ≥ 100× the
// speed of the cold exact-plan path below.
func BenchmarkServicePlanHot(b *testing.B) {
	hera := mustPlatform(b, "Hera")
	svc := service.New(service.Config{
		Tracer: obs.New(obs.Config{SampleEvery: 1 << 20}),
	})
	if _, err := svc.PlanExact(core.PDMV, hera.Costs, hera.Rates); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := svc.Tracer().Start("plan_exact", "", "")
		ctx := obs.NewContext(context.Background(), tr)
		if _, err := svc.PlanExactCtx(ctx, core.PDMV, hera.Costs, hera.Rates); err != nil {
			b.Fatal(err)
		}
		tr.Finish(200, "hit")
	}
	holdCeiling(b)
}

// BenchmarkServiceHTTPPlanHit measures a cache hit through the HTTP
// handler — body decode, canonical key, cache lookup, response write —
// the rung between BenchmarkServicePlanHot (no HTTP, no decode) and
// the latency a client observes. Each sub-benchmark replays one
// perfbench-shaped body of its plan route (httpPlanHits).
func BenchmarkServiceHTTPPlanHit(b *testing.B) {
	for _, c := range httpPlanHits(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				c.serve()
			}
		})
	}
}

// httpPlanHitAllocs bounds the allocations of a cache hit through the
// HTTP handler: the body limit's reader, the request body's buffer, the
// decoded kind string or level slice and the Content-Type header value.
// A hit arms no deadline timer, so the service's one-minute default
// budget costs it nothing.
const httpPlanHitAllocs = 4

// TestHTTPPlanHitAllocs is the CI guard on a cache hit through the HTTP
// handler: on each plan route it allocates at most httpPlanHitAllocs
// times. The handler's disposition stays on the stack; when it moved to
// the heap, every request on every endpoint paid one more allocation.
func TestHTTPPlanHitAllocs(t *testing.T) {
	for _, c := range httpPlanHits(t) {
		allocs := testing.AllocsPerRun(200, c.serve)
		t.Logf("%s: %v allocs per hit", c.name, allocs)
		if allocs > httpPlanHitAllocs {
			t.Errorf("%s: an HTTP cache hit allocates %v times, budget %d", c.name, allocs, httpPlanHitAllocs)
		}
	}
}

// httpPlanHit replays one request that hits the cache behind an HTTP
// handler.
type httpPlanHit struct {
	name  string
	serve func()
}

// httpPlanHits returns one warmed hit per plan route, each replaying a
// perfbench-shaped body (planBodies) to a service configured as
// respatd's defaults configure it: a one-minute request budget, and a
// tracer sampling as in BenchmarkServicePlanHot, so every replay takes
// the unsampled branch.
func httpPlanHits(tb testing.TB) []httpPlanHit {
	tb.Helper()
	h := service.New(hitConfig()).Handler()
	var hits []httpPlanHit
	for _, c := range planBodies(tb) {
		serve := replay(tb, h, c.path, c.body)
		serve() // the cold plan; every later replay hits
		hits = append(hits, httpPlanHit{c.name, serve})
	}
	return hits
}

// hitConfig is the service configuration of the HTTP hit benchmarks:
// respatd's one-minute default budget, and a tracer that samples one
// request in 2^20.
func hitConfig() service.Config {
	return service.Config{
		DefaultTimeout: time.Minute,
		Tracer:         obs.New(obs.Config{SampleEvery: 1 << 20}),
	}
}

// planBody is one plan route's request body, marshalled.
type planBody struct {
	name, path string
	body       []byte
}

// planBodies returns a perfbench-shaped body for each plan route:
// Hera's PDMV costs and rates on /v1/plan and /v1/plan/exact, Hera's
// L=3 params on /v1/plan/multilevel.
func planBodies(tb testing.TB) []planBody {
	tb.Helper()
	hera, err := platform.ByName("Hera")
	if err != nil {
		tb.Fatal(err)
	}
	params, err := multilevel.FromPlatform(hera, 3)
	if err != nil {
		tb.Fatal(err)
	}
	plan := service.PlanRequest{Kind: core.PDMV.String(), Costs: &hera.Costs, Rates: &hera.Rates}
	var out []planBody
	for _, c := range []struct {
		name, path string
		body       any
	}{
		{"plan", "/v1/plan", plan},
		{"exact", "/v1/plan/exact", plan},
		{"multilevel", "/v1/plan/multilevel", service.MultilevelPlanRequest{Params: &params}},
	} {
		raw, err := json.Marshal(c.body)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, planBody{c.name, c.path, raw})
	}
	return out
}

// replay returns a function that sends h one request, posting raw to
// path, and requires a 200. Every call reuses one request and one
// response writer, so it costs only what h does.
func replay(tb testing.TB, h http.Handler, path string, raw []byte) func() {
	body := &replayBody{}
	req := httptest.NewRequest(http.MethodPost, path, nil)
	w := &discardWriter{header: http.Header{}}
	return func() {
		body.Reset(raw)
		req.Body = body
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			tb.Fatalf("%s: status %d", path, w.status)
		}
	}
}

// BenchmarkServiceForwardedHit measures a cache hit one peer hop away:
// the rung between BenchmarkServiceHTTPPlanHit and the latency a
// client observes. Two replicas join a cluster over an in-process
// RoundTripper that serves a request by calling the owner's handler,
// as perfbench's does. Each sub-benchmark replays one perfbench-shaped
// body of its plan route to the replica that does not own its key, so
// every iteration decodes the body, routes the key, forwards it and
// hits the owner's cache.
func BenchmarkServiceForwardedHit(b *testing.B) {
	for _, c := range forwardedHits(b) {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				c.serve()
			}
		})
	}
}

// forwardedHitAllocs bounds the allocations of a forwarded cache hit,
// entry and owner together, the in-process transport's included.
const forwardedHitAllocs = 32

// TestForwardedHitAllocs is the CI guard on a cache hit one peer hop
// away: on each plan route, a request entering the replica that does
// not own its key allocates at most forwardedHitAllocs times.
func TestForwardedHitAllocs(t *testing.T) {
	for _, c := range forwardedHits(t) {
		allocs := testing.AllocsPerRun(200, c.serve)
		t.Logf("%s: %v allocs per forwarded hit", c.name, allocs)
		if allocs > forwardedHitAllocs {
			t.Errorf("%s: a forwarded cache hit allocates %v times, budget %d", c.name, allocs, forwardedHitAllocs)
		}
	}
}

// forwardedHits returns one warmed forwarded hit per plan route over a
// two-replica cluster configured like httpPlanHits' service. Each body
// is first sent to r0; the replica whose forward count then moves when
// the body is sent again is the one that does not own the key, and
// every replay enters there.
func forwardedHits(tb testing.TB) []httpPlanHit {
	tb.Helper()
	replicas, handlers := newReplicaGroup(tb, 2, hitConfig)
	var hits []httpPlanHit
	for _, c := range planBodies(tb) {
		replay(tb, handlers[0], c.path, c.body)() // the cold plan, on the owner
		entry := -1
		for i, h := range handlers {
			before := replicas[i].Metrics().Forwarded.Load()
			replay(tb, h, c.path, c.body)()
			if replicas[i].Metrics().Forwarded.Load() > before {
				entry = i
			}
		}
		if entry < 0 {
			tb.Fatalf("%s: neither replica forwarded", c.path)
		}
		hits = append(hits, httpPlanHit{c.name, replay(tb, handlers[entry], c.path, c.body)})
	}
	return hits
}

// replayBody is a request body that rewinds, so one request serves
// every iteration.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// discardWriter is an http.ResponseWriter that keeps only the status,
// so the benchmark times the handler rather than a recorder.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) WriteHeader(status int) { w.status = status }

func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// BenchmarkTraceRecord measures the sampled path: one full trace
// lifecycle with three recorded spans, a ring push and the Server-
// Timing render skipped (that happens per response, measured by the
// service benches). Its ceiling bounds the cost of -trace-sample 1
// debugging sessions.
func BenchmarkTraceRecord(b *testing.B) {
	tracer := obs.New(obs.Config{SampleEvery: 1, Ring: 256})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := tracer.Start("plan_exact", "", "")
		tm := tr.Begin(obs.StageDecode)
		tm.End("ok")
		tm = tr.Begin(obs.StageCacheLookup)
		tm.End("hit")
		tm = tr.Begin(obs.StageEncode)
		tm.End("")
		tr.Finish(200, "")
	}
	holdCeiling(b)
}

// BenchmarkPromScrape renders the full Prometheus exposition — every
// counter, gauge and histogram family the service owns — against a
// tracer-enabled service. Its ceiling keeps the scrape path cheap
// enough for aggressive scrape intervals.
func BenchmarkPromScrape(b *testing.B) {
	hera := mustPlatform(b, "Hera")
	svc := service.New(service.Config{
		Tracer: obs.New(obs.Config{SampleEvery: 1}),
	})
	tr := svc.Tracer().Start("plan_exact", "", "")
	if _, err := svc.PlanExactCtx(obs.NewContext(context.Background(), tr), core.PDMV, hera.Costs, hera.Rates); err != nil {
		b.Fatal(err)
	}
	tr.Finish(200, "")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := svc.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	holdCeiling(b)
}

// BenchmarkServicePlanCold measures the cold exact-plan path: every
// iteration perturbs CD so the key is new and the full exact-model
// search runs, on an evaluator built for that configuration.
func BenchmarkServicePlanCold(b *testing.B) {
	hera := mustPlatform(b, "Hera")
	svc := service.New(service.Config{Capacity: 1 << 22})
	costs := hera.Costs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		costs.DiskCkpt = 300 + float64(i)*1e-6
		if _, err := svc.PlanExact(core.PDMV, costs, hera.Rates); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExactPlanMix is the single-level cold work of perfbench's
// zipf-tail workload: each op plans one configuration of a fixed
// seeded mix cold, on a fresh evaluator, with optimize.ExactFrom. The
// mix is 16 Table 2 platforms drawn at random with both error rates
// and the disk checkpoint and recovery costs scattered x0.5..x2, as
// zipf-tail's key space is, times all six families; their first-order
// plans are computed before the timer starts. BenchmarkServicePlanCold
// covers only Hera PDMV.
func BenchmarkExactPlanMix(b *testing.B) {
	type config struct {
		costs core.Costs
		rates core.Rates
		first analytic.Plan
	}
	rng := rand.New(rand.NewPCG(1, 17))
	scatter := func(x float64) float64 { return x * math.Exp((rng.Float64()*2-1)*math.Ln2) }
	plats := platform.Table2()
	var mix []config
	for range 16 {
		p := plats[rng.IntN(len(plats))]
		p.Rates.FailStop = scatter(p.Rates.FailStop)
		p.Rates.Silent = scatter(p.Rates.Silent)
		p.Costs.DiskCkpt = scatter(p.Costs.DiskCkpt)
		p.Costs.DiskRec = scatter(p.Costs.DiskRec)
		for _, k := range core.Kinds() {
			first, err := analytic.Optimal(k, p.Costs, p.Rates)
			if err != nil {
				b.Fatal(err)
			}
			mix = append(mix, config{p.Costs, p.Rates, first})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := mix[i%len(mix)]
		if _, err := optimize.ExactFrom(c.first, c.costs, c.rates); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServiceFirstOrderCold is the cold path of the first-order
// endpoint (Table 1 closed forms only), the cheapest computation the
// service fronts — the floor a cache hit is competing against.
func BenchmarkServiceFirstOrderCold(b *testing.B) {
	hera := mustPlatform(b, "Hera")
	svc := service.New(service.Config{Capacity: 1 << 22})
	costs := hera.Costs
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		costs.DiskCkpt = 300 + float64(i)*1e-6
		if _, err := svc.Plan(core.PDMV, costs, hera.Rates); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRingRoute measures the consistent-hash owner lookup every
// clustered request pays before the cache probe: hash the canonical
// 139-byte key and binary-search the virtual-node table of a 16-replica
// ring. The contract (DESIGN.md §2.9) is 0 allocs/op, held in CI by
// TestRingRouteZeroAlloc on this loop; ceilings holds its time.
func BenchmarkRingRoute(b *testing.B) {
	members := make([]string, 16)
	for i := range members {
		members[i] = fmt.Sprintf("replica-%02d", i)
	}
	ring, err := cluster.New(1, 0, members)
	if err != nil {
		b.Fatal(err)
	}
	hera := mustPlatform(b, "Hera")
	keys := make([]service.Key, 64)
	for i := range keys {
		costs := hera.Costs
		costs.DiskCkpt += float64(i)
		keys[i] = service.EncodeKey(service.ModePlanExact, core.PDMV, costs, hera.Rates)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink string
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		sink = ring.Route(k[:])
	}
	holdCeiling(b)
	_ = sink
}

func mustPlatform(b *testing.B, name string) platform.Platform {
	b.Helper()
	p, err := platform.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func formatFactor(f float64) string { return fmt.Sprintf("%gx", f) }
