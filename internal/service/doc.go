// Package service is the online planning layer of respat: a
// high-throughput, concurrency-safe front end over the Table 1 planner
// (analytic.Optimal), the exact-model planner (optimize.Exact), the
// exact expected-time evaluator (analytic.Evaluator) and the adaptive
// re-planning sessions of internal/adapt, designed to serve plan
// lookups at high request rates.
//
// Two mechanisms make the hot path cheap:
//
//   - a sharded cache of fully marshalled responses with SIEVE
//     eviction, keyed by a canonical fixed-width binary encoding of
//     (family, Costs, Rates) (see Key) — a hit is one map lookup plus
//     setting the entry's visited bit, with no allocation and no float
//     formatting;
//   - singleflight request coalescing — concurrent misses on the same
//     key run the computation once and share the result.
//
// No warm state outlives a computation: each cold plan, evaluation and
// adaptive decision builds its own evaluator or planner, and the
// admission gate's ColdWorkers is the only limit on concurrent cold
// plans.
//
// The three plan routes (/v1/plan, /v1/plan/exact, /v1/plan/multilevel)
// are one pipeline, parameterised by Mode: decode, canonical key, one
// cache lookup, owning peer, one miss path, and in degraded mode one
// fallback step. On the miss path a first-order plan computes ungated,
// an exact or multilevel plan passes the too-tight check and the
// admission gate, and all three coalesce on their key. The modes
// differ only in body shape, planner call and response type. The
// exported Plan, PlanExact and PlanMultilevel methods look their key
// up inline and share the miss path.
//
// The cache is a pure memo: a cached response is byte-identical to what
// a cold computation would produce (asserted by tests; see DESIGN.md
// §3). Batch requests fan out over the bounded worker discipline of
// internal/sched, the same scheduler the experiment harness uses for
// campaign cells.
//
// Adaptive sessions (POST /v1/observe, GET /v1/adaptive) are kept in a
// capped in-memory table; the plan a session recommends is served
// through the same cache, so it is byte-identical to a cold
// /v1/plan at the fitted rates and inherits the coalescing guarantees.
// The full HTTP reference lives in docs/api.md.
package service
