package service

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"respat/internal/adapt"
	"respat/internal/analytic"
	"respat/internal/core"
	"respat/internal/multilevel"
	"respat/internal/obs"
	"respat/internal/optimize"
)

// Config sizes a Service.
type Config struct {
	// Shards is the number of cache shards (rounded up to a power of
	// two; default 16). More shards mean less lock contention.
	Shards int
	// Capacity is the total number of cached plans across all shards
	// (default 4096).
	Capacity int
	// BatchWorkers bounds how many items of one POST /v1/batch body are
	// processed concurrently (default GOMAXPROCS).
	BatchWorkers int
	// MaxSessions caps the number of live adaptive sessions (default
	// 1024); POST /v1/observe for a new session id beyond the cap is
	// rejected with 429. Sessions are freed by DELETE /v1/adaptive.
	MaxSessions int
	// ColdWorkers bounds how many expensive cold plans (exact and
	// multilevel searches) compute concurrently (default GOMAXPROCS).
	// Cache hits bypass the gate entirely and stay allocation-free;
	// the cheap first-order /v1/plan cold path is ungated too.
	ColdWorkers int
	// ColdQueue bounds how many cold-plan computations may wait for a
	// worker slot (default 4x ColdWorkers). When the queue is full
	// further cold requests are shed with ErrShed (HTTP 429 plus a
	// Retry-After derived from observed cold-plan latency quantiles).
	ColdQueue int
	// DefaultTimeout is the per-request deadline budget applied when a
	// request carries no X-Request-Timeout header (0 = no budget).
	DefaultTimeout time.Duration
	// Degraded, when set, serves the first-order analytic plan —
	// flagged "degraded": true, with its predicted-overhead delta —
	// instead of failing, whenever the gate sheds a request or its
	// deadline is too tight for the exact search.
	Degraded bool
	// ColdFault, if non-nil, runs at the start of every admitted
	// cold-plan computation. It exists for fault injection (see
	// internal/chaos): returning an error fails the computation,
	// sleeping adds planner latency. Production configurations leave
	// it nil.
	ColdFault func(ctx context.Context) error
	// Now overrides the clock that times cold-plan computations, from
	// slot acquisition through ColdFault to the computation's return,
	// for the gate's cold-plan p90: the Retry-After and too-tight
	// estimate (chaos/testing hook; default time.Now).
	Now func() time.Time
	// Tracer samples and records per-request traces (internal/obs).
	// nil disables tracing entirely; every trace call site is nil-safe,
	// so the hot path pays nothing beyond one atomic add per request.
	Tracer *obs.Tracer
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = 16
	}
	if c.Capacity <= 0 {
		c.Capacity = 4096
	}
	if c.BatchWorkers <= 0 {
		c.BatchWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.ColdWorkers <= 0 {
		c.ColdWorkers = runtime.GOMAXPROCS(0)
	}
	if c.ColdQueue <= 0 {
		c.ColdQueue = 4 * c.ColdWorkers
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Service plans, evaluates and compares resilience patterns behind the
// plan cache, and hosts the adaptive re-planning sessions of
// internal/adapt. All methods are safe for concurrent use.
type Service struct {
	cfg     Config
	cache   *cache
	gate    *gate
	metrics Metrics
	tracer  *obs.Tracer // cfg.Tracer; nil disables tracing
	started time.Time

	sessMu   sync.Mutex
	sessions map[string]*adapt.Session

	// clu is nil until EnableCluster joins this service to a
	// consistent-hash replica group (cluster.go).
	clu *clusterState
}

// New builds a Service. The zero Config is valid and gets defaults.
func New(cfg Config) *Service {
	s := &Service{cfg: cfg.withDefaults(), started: time.Now()}
	s.tracer = s.cfg.Tracer
	s.cache = newCache(s.cfg.Shards, s.cfg.Capacity, &s.metrics)
	s.cfg.Shards = len(s.cache.shards)
	s.gate = newGate(s.cfg.ColdWorkers, s.cfg.ColdQueue)
	return s
}

// Config returns the configuration the service runs with: the Config
// New was given, with every default filled in and Shards rounded up to
// a power of two.
func (s *Service) Config() Config { return s.cfg }

// Tracer exposes the service's tracer (nil when tracing is disabled);
// cmd/respatd mounts /debug/traces on the debug listener through it.
func (s *Service) Tracer() *obs.Tracer { return s.tracer }

// Metrics exposes the service counters (live; callers read atomics or
// take a Snapshot via the /metrics endpoint).
func (s *Service) Metrics() *Metrics { return &s.metrics }

// PlanResponse is the body served for /v1/plan and /v1/plan/exact.
type PlanResponse struct {
	Kind  string `json:"kind"`
	Exact bool   `json:"exact"`
	N     int    `json:"n"`
	M     int    `json:"m"`
	// W is the optimal pattern length in seconds.
	W float64 `json:"w"`
	// Overhead is the expected overhead H at the optimum: first-order
	// 2·sqrt(oef·orw) for plan, exact E(P)/W - 1 for plan/exact. A
	// degraded response carries the exact-model overhead of the
	// first-order plan it serves.
	Overhead float64 `json:"overhead"`
	// Degraded marks a graceful-degradation response: the service was
	// overloaded (or the deadline too tight) and served the first-order
	// analytic plan instead of running the exact search. Absent on
	// normal responses, so cached bytes are unchanged.
	Degraded bool `json:"degraded,omitempty"`
	// DegradedDelta quantifies how optimistic the degraded answer is:
	// the exact-model overhead of the served first-order plan minus its
	// own first-order prediction.
	DegradedDelta float64 `json:"degradedDelta,omitempty"`
}

// EvaluateResponse is the body served for /v1/evaluate.
type EvaluateResponse struct {
	// ExpectedTime is the exact expected execution time E(P) in seconds.
	ExpectedTime float64 `json:"expectedTime"`
	// Overhead is E(P)/W - 1.
	Overhead float64 `json:"overhead"`
}

// Plan returns the marshalled first-order Table 1 plan of family kind
// for (costs, rates), serving from the cache when possible. The
// returned bytes are shared with the cache and must not be mutated.
// The first-order cold path is microseconds of closed-form arithmetic,
// so it is not admission-gated.
func (s *Service) Plan(kind core.Kind, costs core.Costs, rates core.Rates) ([]byte, error) {
	return s.PlanCtx(context.Background(), kind, costs, rates)
}

// PlanCtx is Plan under a request context; a caller that abandons
// (ctx done) stops waiting for a coalesced computation. Like
// PlanExactCtx and PlanMultilevelCtx, it looks its key up inline, so a
// hit pays for no further call, and on a miss takes the miss path of
// the plan routes: its bytes are those /v1/plan serves.
func (s *Service) PlanCtx(ctx context.Context, kind core.Kind, costs core.Costs, rates core.Rates) ([]byte, error) {
	if !kind.Valid() {
		return nil, fmt.Errorf("service: invalid pattern kind %d", int(kind))
	}
	key := EncodeKey(ModePlan, kind, costs, rates)
	tm := obs.FromContext(ctx).Begin(obs.StageCacheLookup)
	resp, ok := s.cache.get(key)
	tm.End(hitMiss(ok))
	if ok {
		return resp, nil
	}
	return s.planMiss(ctx, key, planRequest{mode: ModePlan, kind: kind, costs: costs, rates: rates})
}

// hitMiss labels a cache probe's span outcome.
func hitMiss(ok bool) string {
	if ok {
		return "hit"
	}
	return "miss"
}

// planRequest is one plan request of any mode: the mode, and the
// family, costs and rates of a single-level plan or the params of a
// multilevel one.
type planRequest struct {
	mode   Mode
	kind   core.Kind
	costs  core.Costs
	rates  core.Rates
	params multilevel.Params
}

// key returns the request's canonical cache key.
func (q *planRequest) key() Key {
	if q.mode == ModePlanMultilevel {
		return EncodeMultilevelKey(q.params)
	}
	return EncodeKey(q.mode, q.kind, q.costs, q.rates)
}

// planMiss is the one miss path of every plan mode, split out so the
// hot path does not pay for the compute closure. A caller that has
// looked key up already calls it directly: it coalesces on key without
// a second lookup of its own. A first-order plan is microseconds of
// closed-form arithmetic and computes ungated; an exact or multilevel
// plan first passes the too-tight check, then the admission gate.
func (s *Service) planMiss(ctx context.Context, key Key, q planRequest) ([]byte, error) {
	if q.mode == ModePlan {
		return s.cache.getOrCompute(ctx, key, q.compute)
	}
	if err := s.tooTight(ctx); err != nil {
		return nil, err
	}
	return s.cache.getOrCompute(ctx, key, gatedPlan{s, q}.compute)
}

// gatedPlan is an exact or multilevel plan's computation: the
// request's planner behind s's admission gate. Its method value copies
// the request into the flight's one compute allocation; a closure
// would capture the request, too large for Go to capture by value,
// through a second one.
type gatedPlan struct {
	s *Service
	q planRequest
}

func (g gatedPlan) compute(ctx context.Context) ([]byte, error) { return g.s.gated(ctx, g.q.compute) }

// compute runs the request's planner and marshals its mode's response:
// the Table 1 plan, the exact search on an evaluator of its own, or
// the multilevel search on a planner of its own.
func (q planRequest) compute(ctx context.Context) ([]byte, error) {
	switch q.mode {
	case ModePlanExact:
		first, err := analytic.Optimal(q.kind, q.costs, q.rates)
		if err != nil {
			return nil, err
		}
		ev, err := analytic.NewEvaluator(q.costs, q.rates)
		if err != nil {
			return nil, err
		}
		plan, err := optimize.ExactWithEvaluatorCtx(ctx, ev, first)
		if err != nil {
			return nil, err
		}
		return marshalResponse(PlanResponse{
			Kind:     plan.Kind.String(),
			Exact:    true,
			N:        plan.N,
			M:        plan.M,
			W:        plan.W,
			Overhead: plan.Overhead,
		})
	case ModePlanMultilevel:
		pl, err := multilevel.NewPlanner(q.params)
		if err != nil {
			return nil, err
		}
		plan, err := pl.PlanCtx(ctx)
		if err != nil {
			return nil, err
		}
		return marshalResponse(MultilevelPlanResponse{
			Levels:   q.params.L(),
			Counts:   plan.Spec.Counts,
			M:        plan.Spec.M,
			W:        plan.Spec.W,
			Overhead: plan.Overhead,
		})
	default:
		plan, err := analytic.Optimal(q.kind, q.costs, q.rates)
		if err != nil {
			return nil, err
		}
		return marshalResponse(PlanResponse{
			Kind:     plan.Kind.String(),
			N:        plan.N,
			M:        plan.M,
			W:        plan.W,
			Overhead: plan.Overhead,
		})
	}
}

// PlanExact returns the marshalled exact-model plan (renewal-equation
// optimum, no first-order truncation), cached like Plan. Each cold
// search runs on an evaluator of its own.
func (s *Service) PlanExact(kind core.Kind, costs core.Costs, rates core.Rates) ([]byte, error) {
	return s.PlanExactCtx(context.Background(), kind, costs, rates)
}

// PlanExactCtx is PlanExact under a request context. Cache hits bypass
// the admission gate unconditionally. A miss takes the miss path of
// the plan routes: the cold computation is admitted through the
// bounded cold-plan gate (ErrShed when its queue is full) and
// cancelled when every interested request abandons. A shed or
// too-tight plan returns its error; only the HTTP route falls back to
// DegradedPlanExact.
func (s *Service) PlanExactCtx(ctx context.Context, kind core.Kind, costs core.Costs, rates core.Rates) ([]byte, error) {
	if !kind.Valid() {
		return nil, fmt.Errorf("service: invalid pattern kind %d", int(kind))
	}
	key := EncodeKey(ModePlanExact, kind, costs, rates)
	tm := obs.FromContext(ctx).Begin(obs.StageCacheLookup)
	resp, ok := s.cache.get(key)
	tm.End(hitMiss(ok))
	if ok {
		return resp, nil
	}
	return s.planMiss(ctx, key, planRequest{mode: ModePlanExact, kind: kind, costs: costs, rates: rates})
}

// gated runs one cold-plan computation through the admission gate:
// acquire a worker slot (shedding when the bounded queue is full), run
// the optional injected fault hook, compute, and record the wall time
// of hook and computation, the cold_compute span's interval, for the
// Retry-After and too-tight estimate. ctx is the flight context, so a
// queued computation whose every requester abandoned leaves the queue
// instead of occupying it.
func (s *Service) gated(ctx context.Context, fn func(context.Context) ([]byte, error)) ([]byte, error) {
	// ctx is the flight context; cache.getOrCompute stitched the flight
	// leader's trace into it, so the gate and compute spans land on the
	// trace of the request that started this computation.
	tr := obs.FromContext(ctx)
	gw := tr.Begin(obs.StageGateWait)
	if err := s.gate.acquire(ctx); err != nil {
		if err == ErrShed {
			s.metrics.Shed.Add(1)
			gw.End("shed")
		} else {
			gw.End("cancelled")
		}
		return nil, err
	}
	gw.End("admitted")
	defer s.gate.release()
	s.metrics.Admitted.Add(1)
	cc := tr.Begin(obs.StageColdCompute)
	start := s.cfg.Now()
	if s.cfg.ColdFault != nil {
		if err := s.cfg.ColdFault(ctx); err != nil {
			cc.End("error")
			return nil, err
		}
	}
	resp, err := fn(ctx)
	s.gate.observe(s.cfg.Now().Sub(start))
	if err != nil {
		cc.End("error")
	} else {
		cc.End("ok")
	}
	return resp, err
}

// tooTight reports (in degraded mode only) whether ctx's remaining
// budget is smaller than the estimated cold-plan latency, in which
// case attempting the exact search is pointless and the caller should
// degrade immediately.
func (s *Service) tooTight(ctx context.Context) error {
	if !s.cfg.Degraded {
		return nil
	}
	dl, ok := ctx.Deadline()
	if !ok {
		return nil
	}
	est := s.gate.estimate()
	if est > 0 && time.Until(dl).Seconds() < est {
		return ErrTooTight
	}
	return nil
}

// DegradedPlanExact is the graceful-degradation fallback of PlanExact,
// which /v1/plan/exact serves in degraded mode for a shed or too-tight
// plan: the first-order Table 1 plan (the exact search's seed),
// evaluated once under the exact model so the response carries both
// its real predicted overhead and the delta against the first-order
// estimate.
// Pure closed-form arithmetic plus one renewal evaluation — no search,
// no gate, deterministic and byte-stable across repeats. Degraded
// responses are never cached: a later healthy request for the same
// configuration must compute (and cache) the exact optimum.
func (s *Service) DegradedPlanExact(kind core.Kind, costs core.Costs, rates core.Rates) ([]byte, error) {
	if !kind.Valid() {
		return nil, fmt.Errorf("service: invalid pattern kind %d", int(kind))
	}
	first, err := analytic.Optimal(kind, costs, rates)
	if err != nil {
		return nil, err
	}
	ev, err := analytic.NewEvaluator(costs, rates)
	if err != nil {
		return nil, err
	}
	t, err := ev.ExpectedTime(first.Pattern)
	if err != nil {
		return nil, err
	}
	exactH := t/first.W - 1
	return marshalResponse(PlanResponse{
		Kind:          first.Kind.String(),
		N:             first.N,
		M:             first.M,
		W:             first.W,
		Overhead:      exactH,
		Degraded:      true,
		DegradedDelta: exactH - first.Overhead,
	})
}

// Evaluate returns the marshalled exact expected time of a
// caller-supplied pattern. Arbitrary patterns are not cached (their
// identity is not covered by the (family, Costs, Rates) key), and each
// call evaluates on an evaluator of its own.
func (s *Service) Evaluate(p core.Pattern, costs core.Costs, rates core.Rates) ([]byte, error) {
	t, err := analytic.ExactExpectedTime(p, costs, rates)
	if err != nil {
		return nil, err
	}
	return marshalResponse(EvaluateResponse{ExpectedTime: t, Overhead: t/p.W - 1})
}

// marshalResponse marshals a response body. encoding/json is
// deterministic for struct values, which is what makes the cached
// bytes byte-identical to a cold computation's.
func marshalResponse(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("service: marshal response: %w", err)
	}
	return b, nil
}
