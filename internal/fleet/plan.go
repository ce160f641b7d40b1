package fleet

// Resilience planning for a fleet: every distinct (mode, node count)
// observed in the job list gets one plan — optimize.Exact for pattern
// mode, a multilevel.Planner for the hierarchical modes. Thousands of
// jobs sharing a shape therefore pay for exactly one cold plan.

import (
	"fmt"
	"sort"

	"respat/internal/core"
	"respat/internal/multilevel"
	"respat/internal/optimize"
)

// jobPlan is the resilience plan shared by every job of one
// (mode, nodes) shape.
type jobPlan struct {
	idx       int
	mode      Mode
	nodes     int
	w         float64 // pattern work length W* (the protected-work quantum)
	predicted float64 // model-predicted overhead at the optimum
	desc      string  // human-readable plan summary
	// Pattern-mode payload.
	pattern core.Pattern
	costs   core.Costs
	rates   core.Rates
	// Hierarchical-mode payload.
	params multilevel.Params
	spec   multilevel.Spec
}

// planShape is the cache key.
type planShape struct {
	mode  Mode
	nodes int
}

// buildPlans plans every distinct job shape and maps each job to its
// plan index. Shapes are planned in sorted (mode, nodes) order so the
// plan list — and everything downstream — is independent of job order
// within a shape.
func buildPlans(cfg *Config, jobs []Job) ([]jobPlan, []int, error) {
	shapes := map[planShape]int{}
	var order []planShape
	for _, j := range jobs {
		s := planShape{mode: j.Mode, nodes: j.Nodes}
		if _, ok := shapes[s]; !ok {
			shapes[s] = 0
			order = append(order, s)
		}
	}
	sort.Slice(order, func(a, b int) bool {
		if order[a].mode != order[b].mode {
			return order[a].mode < order[b].mode
		}
		return order[a].nodes < order[b].nodes
	})

	plans := make([]jobPlan, len(order))
	for i, s := range order {
		shapes[s] = i
		p, err := planShapeFor(cfg, s)
		if err != nil {
			return nil, nil, fmt.Errorf("fleet: planning %s jobs on %d nodes: %w", s.mode, s.nodes, err)
		}
		p.idx = i
		plans[i] = p
	}
	planIdx := make([]int, len(jobs))
	for i, j := range jobs {
		planIdx[i] = shapes[planShape{mode: j.Mode, nodes: j.Nodes}]
	}
	return plans, planIdx, nil
}

// planShapeFor plans one shape: the job's platform is the fleet
// platform weak-scaled to the job's node count (error rates grow
// linearly with nodes, costs stay per-node constant).
func planShapeFor(cfg *Config, s planShape) (jobPlan, error) {
	plat, err := cfg.Platform.WeakScale(s.nodes)
	if err != nil {
		return jobPlan{}, err
	}
	switch s.mode {
	case ModePattern:
		exact, err := optimize.Exact(cfg.Family, plat.Costs, plat.Rates)
		if err != nil {
			return jobPlan{}, err
		}
		pattern, err := core.Layout(exact.Kind, exact.W, exact.N, exact.M, plat.Costs.Recall)
		if err != nil {
			return jobPlan{}, err
		}
		return jobPlan{
			mode: s.mode, nodes: s.nodes,
			w: exact.W, predicted: exact.Overhead, desc: exact.String(),
			pattern: pattern, costs: plat.Costs, rates: plat.Rates,
		}, nil
	case ModeTwoLevel, ModeMultilevel:
		levels := 2
		if s.mode == ModeMultilevel {
			levels = cfg.Levels
		}
		params, err := multilevel.FromPlatform(plat, levels)
		if err != nil {
			return jobPlan{}, err
		}
		pl, err := multilevel.NewPlanner(params)
		if err != nil {
			return jobPlan{}, err
		}
		plan, err := pl.Plan()
		if err != nil {
			return jobPlan{}, err
		}
		return jobPlan{
			mode: s.mode, nodes: s.nodes,
			w: plan.Spec.W, predicted: plan.Overhead, desc: plan.String(),
			params: params, spec: plan.Spec,
		}, nil
	default:
		return jobPlan{}, fmt.Errorf("fleet: mode %d out of range", int(s.mode))
	}
}
