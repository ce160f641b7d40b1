package main

import (
	"context"
	"fmt"
	"time"

	"respat/internal/analytic"
	"respat/internal/cluster"
	"respat/internal/core"
	"respat/internal/multilevel"
	"respat/internal/optimize"
	"respat/internal/service"
)

// Replay sizes: how many configurations of each kind a traced run
// replays through the planners, and how often each timed call repeats
// to resolve it above the clock's granularity.
const (
	replaySingles     = 48
	replayMultilevel  = 24
	firstOrderRepeats = 200
	evalRepeats       = 2000
	mlEvalRepeats     = 200
	routeRepeats      = 4
)

// singleConfig is a single-level planning configuration.
type singleConfig struct {
	kind  core.Kind
	costs core.Costs
	rates core.Rates
}

// replayStats are the planner-layer measurements of a replay.
type replayStats struct {
	firstOrderUS, exactMS, evalNS float64
	mlPlanMS, mlEvalNS            float64
	leaves, evaluated, pruned     float64 // per multilevel plan
}

// replay runs configurations the workload plans cold through the
// planner layers one at a time, outside any service: the first-order
// closed form, the exact search on a fresh evaluator, and a fresh
// multilevel planner, then probes each evaluator at the optimum found.
func replay(singles []singleConfig, mls []multilevel.Params) (replayStats, error) {
	var s replayStats
	ctx := context.Background()
	var foNS, exNS, evNS float64
	for _, c := range singles {
		start := time.Now()
		var first analytic.Plan
		var err error
		for range firstOrderRepeats {
			if first, err = analytic.Optimal(c.kind, c.costs, c.rates); err != nil {
				return s, fmt.Errorf("first-order plan: %w", err)
			}
		}
		foNS += float64(time.Since(start).Nanoseconds()) / firstOrderRepeats

		start = time.Now()
		ev, err := analytic.NewEvaluator(c.costs, c.rates)
		if err != nil {
			return s, err
		}
		plan, err := optimize.ExactWithEvaluatorCtx(ctx, ev, first)
		if err != nil {
			return s, fmt.Errorf("exact plan: %w", err)
		}
		exNS += float64(time.Since(start).Nanoseconds())

		start = time.Now()
		for range evalRepeats {
			if _, err := ev.EvalLayout(plan.Kind, plan.N, plan.M, plan.W); err != nil {
				return s, err
			}
		}
		evNS += float64(time.Since(start).Nanoseconds()) / evalRepeats
	}
	n := float64(len(singles))
	s.firstOrderUS, s.exactMS, s.evalNS = ratio(foNS, n)/1e3, ratio(exNS, n)/1e6, ratio(evNS, n)

	var planNS, mlEvNS, leaves, evaluated, pruned, candidates float64
	for _, p := range mls {
		start := time.Now()
		pl, err := multilevel.NewPlanner(p)
		if err != nil {
			return s, err
		}
		plan, err := pl.PlanCtx(ctx)
		if err != nil {
			return s, fmt.Errorf("multilevel plan: %w", err)
		}
		planNS += float64(time.Since(start).Nanoseconds())
		st := pl.Stats()
		leaves += float64(st.Leaves)
		evaluated += float64(st.Evaluated)
		pruned += float64(st.Pruned)
		candidates += float64(st.Candidates)

		ev, err := multilevel.NewEvaluator(p)
		if err != nil {
			return s, err
		}
		start = time.Now()
		for range mlEvalRepeats {
			if _, err := ev.ExpectedTime(plan.Spec); err != nil {
				return s, err
			}
		}
		mlEvNS += float64(time.Since(start).Nanoseconds()) / mlEvalRepeats
	}
	m := float64(len(mls))
	s.mlPlanMS, s.mlEvalNS = ratio(planNS, m)/1e6, ratio(mlEvNS, m)
	s.leaves, s.evaluated, s.pruned = ratio(leaves, m), ratio(evaluated, m), ratio(pruned, candidates)
	return s, nil
}

func (s replayStats) metrics() []metric {
	return []metric{
		{"analytic.first_order_us", "us", s.firstOrderUS, 0},
		{"optimize.exact_ms", "ms", s.exactMS, 0},
		{"multilevel.plan_ms", "ms", s.mlPlanMS, 0},
		{"multilevel.leaves_per_plan", "count", s.leaves, 0},
		{"multilevel.evaluated_per_plan", "count", s.evaluated, 0},
		{"multilevel.pruned_ratio", "ratio", s.pruned, 0},
		{"analytic.eval_ns", "ns", s.evalNS, 0},
		{"multilevel.eval_ns", "ns", s.mlEvalNS, 0},
	}
}

// routeNS times cluster.Ring.Route over keys on the ring a 3-replica
// cluster-hot deployment builds (ring seed 1, default vnodes).
func routeNS(keys []service.Key) (float64, error) {
	ring, err := cluster.New(ringSeed, 0, []string{"r0", "r1", "r2"})
	if err != nil {
		return 0, err
	}
	if len(keys) == 0 {
		return 0, nil
	}
	var owners int
	start := time.Now()
	for range routeRepeats {
		for i := range keys {
			owners += len(ring.Route(keys[i][:]))
		}
	}
	elapsed := time.Since(start)
	if owners == 0 {
		return 0, fmt.Errorf("ring routed %d keys to no owner", len(keys))
	}
	return float64(elapsed.Nanoseconds()) / float64(routeRepeats*len(keys)), nil
}
