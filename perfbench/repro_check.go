package main

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sync/atomic"
	"time"

	"respat/internal/core"
	"respat/internal/faults"
	"respat/internal/harness"
	"respat/internal/multilevel"
	"respat/internal/platform"
	"respat/internal/service"
)

// Reference values of the paper's artefacts (Hera, Table 1), which hold
// at any seed.
const (
	heraPDWHours       = 2.57
	heraPDOverheadPct  = 7.14
	heraPDMVN          = 6
	heraPDMVM          = 17
	heraPDMVOverhead   = 3.95
	maxHeraRegret      = 0.0002 // 0.02%
	maxFig6Gap         = 0.005  // simulated vs predicted overhead, absolute
	fig6CheckPatterns  = 300    // harness.Medium
	fig6CheckRuns      = 150
	fig6CheckSeedIndex = 1 << 20 // seed stream of the Fig 6 check campaign
)

// crossCheck serves the paper's plans from a 3-replica deployment: each
// Table 1 plan on /v1/plan, each ablation exact plan on /v1/plan/exact
// and each study plan on /v1/plan/multilevel, all of which must match
// the regenerated artefact field for field.
type crossCheck struct {
	l      *load
	expect []func(body []byte) error
}

// check runs paper-repro's output checks on the first results of every
// cell: the Table 1 and ablation reference values, a Fig 6 Hera
// campaign at medium size, and the service cross-check, whose
// deployment it returns.
func (r *reproRun) check(res *result, seed uint64, traced bool) (*crossCheck, error) {
	var table1 []harness.Table1Row
	var ablation []harness.AblationRow
	var study []harness.MultilevelRow
	for j, c := range r.cells {
		p := r.first[j].Load()
		if p == nil {
			continue
		}
		switch c.artefact {
		case "table1":
			table1 = p.value.([]harness.Table1Row)
		case "ablation":
			ablation = append(ablation, p.value.([]harness.AblationRow)...)
		case "multilevel_study":
			study = append(study, p.value.([]harness.MultilevelRow)...)
		}
	}
	checkf := func(ok bool, format string, args ...any) {
		res.attempted++
		if !ok {
			res.fail(format, args...)
		}
	}
	near := func(x, want float64) bool { return math.Abs(x-want) < 0.005 }
	var sawPD, sawPDMV bool
	for _, row := range table1 {
		if row.Platform != "Hera" {
			continue
		}
		pl := row.Plan
		switch pl.Kind {
		case core.PD:
			sawPD = true
			checkf(near(pl.W/3600, heraPDWHours) && near(100*pl.Overhead, heraPDOverheadPct),
				"Table 1 Hera PD: W*=%.4fh H*=%.4f%%, want %.2fh %.2f%%", pl.W/3600, 100*pl.Overhead, heraPDWHours, heraPDOverheadPct)
		case core.PDMV:
			sawPDMV = true
			checkf(pl.N == heraPDMVN && pl.M == heraPDMVM && near(100*pl.Overhead, heraPDMVOverhead),
				"Table 1 Hera PDMV: n*=%d m*=%d H*=%.4f%%, want %d %d %.2f%%", pl.N, pl.M, 100*pl.Overhead, heraPDMVN, heraPDMVM, heraPDMVOverhead)
		}
	}
	checkf(sawPD && sawPDMV, "Table 1 has no Hera PD or PDMV row")
	// The exact optimum is never worse than the first-order plan, and on
	// Hera the first-order plan is within 0.02% of it. (Elsewhere the
	// regret reaches 0.23%, on Coastal-SSD PDV*.)
	checkf(len(ablation) == len(platform.Table2())*len(core.Kinds()), "ablation has %d rows", len(ablation))
	for _, row := range ablation {
		limit := math.Inf(1)
		if row.Platform == "Hera" {
			limit = maxHeraRegret
		}
		checkf(row.Cmp.Regret >= 0 && row.Cmp.Regret <= limit, "ablation %s %v: regret %.4f%%",
			row.Platform, row.Cmp.Kind, 100*row.Cmp.Regret)
	}

	hera := platform.Table2()[0]
	s, _ := faults.SplitSeed(seed, fig6CheckSeedIndex)
	fig6, err := harness.Fig6([]platform.Platform{hera}, harness.Options{
		Patterns: fig6CheckPatterns, Runs: fig6CheckRuns, Seed: s, Workers: 1, CampaignWorkers: reproWorkers,
	})
	if err != nil {
		return nil, fmt.Errorf("fig 6 check campaign: %w", err)
	}
	for _, row := range fig6 {
		checkf(math.Abs(row.Simulated-row.Predicted) <= maxFig6Gap, "Fig 6 Hera %v: simulated %.3f%% vs predicted %.3f%%",
			row.Kind, 100*row.Simulated, 100*row.Predicted)
	}

	cc, err := newCrossCheck(table1, ablation, study, seed, traced)
	if err != nil {
		return nil, err
	}
	cc.run(res)
	return cc, nil
}

func newCrossCheck(table1 []harness.Table1Row, ablation []harness.AblationRow, study []harness.MultilevelRow, seed uint64, traced bool) (*crossCheck, error) {
	const replicas = 3
	sampling := untracedSampling
	if traced {
		sampling = 1
	}
	d, err := deploy(replicas, sampling)
	if err != nil {
		return nil, err
	}
	cc := &crossCheck{l: &load{d: d, seq: &sequence{seed: seed}, traced: traced, clients: make([]client, reproWorkers)}}
	add := func(path string, body any, key service.Key, expect func([]byte) error) error {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		cc.l.items = append(cc.l.items, item{path: path, body: b, key: key})
		cc.expect = append(cc.expect, expect)
		return nil
	}
	for _, row := range table1 {
		p, err := platform.ByName(row.Platform)
		if err != nil {
			return nil, err
		}
		want := service.PlanResponse{Kind: row.Plan.Kind.String(), N: row.Plan.N, M: row.Plan.M, W: row.Plan.W, Overhead: row.Plan.Overhead}
		err = add(pathPlan, service.PlanRequest{Kind: want.Kind, Platform: row.Platform},
			service.EncodeKey(service.ModePlan, row.Plan.Kind, p.Costs, p.Rates), expectJSON(want))
		if err != nil {
			return nil, err
		}
	}
	for _, row := range ablation {
		p, err := platform.ByName(row.Platform)
		if err != nil {
			return nil, err
		}
		ex := row.Cmp.Exact
		want := service.PlanResponse{Kind: ex.Kind.String(), Exact: true, N: ex.N, M: ex.M, W: ex.W, Overhead: ex.Overhead}
		err = add(pathPlanExact, service.PlanRequest{Kind: want.Kind, Platform: row.Platform},
			service.EncodeKey(service.ModePlanExact, ex.Kind, p.Costs, p.Rates), expectJSON(want))
		if err != nil {
			return nil, err
		}
	}
	for _, row := range study {
		p, err := platform.ByName(row.Platform)
		if err != nil {
			return nil, err
		}
		params, err := multilevel.FromPlatform(p, row.Levels)
		if err != nil {
			return nil, err
		}
		spec := row.Plan.Spec
		want := service.MultilevelPlanResponse{Levels: row.Levels, Counts: spec.Counts, M: spec.M, W: spec.W, Overhead: row.Plan.Overhead}
		err = add(pathMultilevel, service.MultilevelPlanRequest{Platform: row.Platform, Levels: row.Levels},
			service.EncodeMultilevelKey(params), expectJSON(want))
		if err != nil {
			return nil, err
		}
	}
	cc.l.first = make([]atomic.Pointer[[]byte], len(cc.l.items))
	return cc, nil
}

// expectJSON checks that a response body decodes to want exactly.
func expectJSON[T any](want T) func([]byte) error {
	return func(body []byte) error {
		var got T
		if err := json.Unmarshal(body, &got); err != nil {
			return err
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("served %+v, artefact has %+v", got, want)
		}
		return nil
	}
}

// run sends every cross-check request once, each entering the replica
// its index names.
func (cc *crossCheck) run(res *result) {
	epoch := time.Now()
	for c := range cc.l.clients {
		cc.l.clients[c].log.epoch = epoch
	}
	cc.l.drive(0, int64(len(cc.l.items)), time.Time{}, func(i int64) (int, int) {
		return int(i), int(i) % len(cc.l.d.names)
	}, "request")
	cc.l.tally(res)
	for i, expect := range cc.expect {
		p := cc.l.first[i].Load()
		if p == nil {
			continue // the request failed, and tally counted it
		}
		res.attempted++
		if err := expect(*p); err != nil {
			res.fail("cross-check %s %s: %v", cc.l.items[i].path, cc.l.items[i].body, err)
		}
	}
}
