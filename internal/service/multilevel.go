package service

import (
	"context"
	"errors"

	"respat/internal/multilevel"
	"respat/internal/obs"
	"respat/internal/platform"
)

// MultilevelPlanRequest is the body of POST /v1/plan/multilevel.
// Exactly one of the two configuration forms must be given:
//
//   - Platform (a Table 2 name) plus Levels, the hierarchy depth — the
//     configuration is derived by multilevel.FromPlatform;
//   - Params, the explicit hierarchy (per-level Ckpt/Rec/Share,
//     verification costs, rates; Go field names, like costs/rates on
//     the other planning endpoints).
type MultilevelPlanRequest struct {
	Platform string             `json:"platform,omitempty"`
	Levels   int                `json:"levels,omitempty"`
	Params   *multilevel.Params `json:"params,omitempty"`
}

// MultilevelPlanResponse is the body served for /v1/plan/multilevel.
type MultilevelPlanResponse struct {
	// Levels is the hierarchy depth L.
	Levels int `json:"levels"`
	// Counts holds n_1..n_L, the optimal per-level interval counts.
	Counts []int `json:"counts"`
	// M is the optimal chunk count per level-1 interval.
	M int `json:"m"`
	// W is the optimal pattern length W* in seconds.
	W float64 `json:"w"`
	// Overhead is the exact expected overhead E(P)/W - 1 at the
	// optimum (for a degraded response: at the served first-order
	// plan, which is not the exact optimum).
	Overhead float64 `json:"overhead"`
	// Degraded marks a graceful-degradation response carrying the
	// first-order seed plan instead of the exact search's optimum;
	// absent on normal responses, so cached bytes are unchanged.
	Degraded bool `json:"degraded,omitempty"`
	// DegradedDelta is the exact-model overhead of the served plan
	// minus its first-order prediction (how optimistic the degraded
	// answer is).
	DegradedDelta float64 `json:"degradedDelta,omitempty"`
}

// PlanMultilevel returns the marshalled optimal multilevel plan for p,
// cached like the other planning operations: the canonical key covers
// the whole level vector, hits are allocation-free, and concurrent
// misses coalesce onto one computation, which runs on a planner of its
// own. The returned bytes are shared with the cache and must not be
// mutated.
func (s *Service) PlanMultilevel(p multilevel.Params) ([]byte, error) {
	return s.PlanMultilevelCtx(context.Background(), p)
}

// PlanMultilevelCtx is PlanMultilevel under a request context. Cache
// hits bypass the admission gate unconditionally. A miss takes the
// miss path of the plan routes: the cold multilevel search (the most
// expensive computation the service runs) is admitted through the
// bounded cold-plan gate and cancelled when every interested request
// abandons. A shed or too-tight plan returns its error; only the HTTP
// route falls back to DegradedPlanMultilevel.
func (s *Service) PlanMultilevelCtx(ctx context.Context, p multilevel.Params) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	key := EncodeMultilevelKey(p)
	tm := obs.FromContext(ctx).Begin(obs.StageCacheLookup)
	resp, ok := s.cache.get(key)
	tm.End(hitMiss(ok))
	if ok {
		return resp, nil
	}
	return s.planMiss(ctx, key, planRequest{mode: ModePlanMultilevel, params: p})
}

// DegradedPlanMultilevel is the graceful-degradation fallback of
// PlanMultilevel, which /v1/plan/multilevel serves in degraded mode
// for a shed or too-tight plan: the first-order seed plan
// (multilevel.FirstOrderPlan) evaluated once under the exact model, so
// the response carries its real predicted overhead plus the delta
// against the first-order estimate. No search, no gate, deterministic
// and byte-stable across repeats; never cached.
func (s *Service) DegradedPlanMultilevel(p multilevel.Params) ([]byte, error) {
	plan, err := multilevel.FirstOrderPlan(p)
	if err != nil {
		return nil, err
	}
	t, err := multilevel.ExpectedTime(p, plan.Spec)
	if err != nil {
		return nil, err
	}
	exactH := t/plan.Spec.W - 1
	return marshalResponse(MultilevelPlanResponse{
		Levels:        p.L(),
		Counts:        plan.Spec.Counts,
		M:             plan.Spec.M,
		W:             plan.Spec.W,
		Overhead:      exactH,
		Degraded:      true,
		DegradedDelta: exactH - plan.Overhead,
	})
}

// parseMultilevelRequest decodes, resolves and validates a multilevel
// plan request body. EncodeMultilevelKey requires validated params (the
// level vector must fit the fixed-width key).
func parseMultilevelRequest(raw []byte) (multilevel.Params, error) {
	var b multilevelBody
	if err := decodeMultilevelBody(raw, &b); err != nil {
		return multilevel.Params{}, err
	}
	var params *multilevel.Params
	if b.hasParams {
		params = &b.params
	}
	p, err := resolveMultilevelConfig(b.platform, b.levels, params)
	if err != nil {
		return multilevel.Params{}, err
	}
	if err := p.Validate(); err != nil {
		return multilevel.Params{}, err
	}
	return p, nil
}

// resolveMultilevelConfig turns the (platform+levels | params) request
// into a concrete configuration.
func resolveMultilevelConfig(platName string, levels int, params *multilevel.Params) (multilevel.Params, error) {
	if platName != "" {
		if params != nil {
			return multilevel.Params{}, errors.New("give either platform+levels or params, not both")
		}
		if levels == 0 {
			return multilevel.Params{}, errors.New("platform form needs levels (the hierarchy depth)")
		}
		pl, err := platform.ByName(platName)
		if err != nil {
			return multilevel.Params{}, err
		}
		return multilevel.FromPlatform(pl, levels)
	}
	if params == nil {
		return multilevel.Params{}, errors.New("need a platform name plus levels, or explicit params")
	}
	if levels != 0 {
		return multilevel.Params{}, errors.New("levels only applies to the platform form")
	}
	return *params, nil
}
