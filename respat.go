// Package respat is a Go implementation of the optimal resilience
// patterns of Benoit, Cavelan, Robert and Sun, "Optimal resilience
// patterns to cope with fail-stop and silent errors" (IPDPS 2016 /
// INRIA RR-8786).
//
// The package protects long-running HPC applications against two
// simultaneous error sources: fail-stop errors (crashes, handled by
// disk checkpoints) and silent data corruptions (handled by partial or
// guaranteed verifications plus in-memory checkpoints). Work is
// organised into periodic patterns P(W, n, α, m, β); this package
// computes the optimal pattern for a platform (Table 1 of the paper),
// predicts its overhead, simulates it, and can execute a real
// application under it.
//
// The four entry points:
//
//   - Optimal plans a pattern family for given costs and error rates
//     (first-order optimal W*, n*, m* and overhead);
//   - Simulate Monte-Carlo-validates a pattern (the paper's Section 6
//     methodology);
//   - Protect executes a real application under a pattern with real
//     checkpoints, verifications and recoveries (internal/engine);
//   - Adaptive opens an observe → fit → re-plan session that tracks
//     drifting error rates and swaps plans when the incumbent's
//     predicted regret exceeds a threshold (internal/adapt).
//
// Beyond the paper's single-level patterns, OptimalMultilevel /
// SimulateMultilevel / ProtectMultilevel plan, validate and execute
// patterns with a hierarchy of checkpoint levels combined with the
// silent-error verifications (internal/multilevel); CompareTwoLevel
// exposes the Section 4.1 two-level fail-stop comparator the
// multilevel model degenerates to.
//
// SimulateFleet scales the validation from one pattern to a whole
// cluster: a deterministic discrete-event simulation of open-loop job
// arrivals against a shared node pool, with per-job plans from the
// exact planners, per-job fault injection and SLO metrics
// (internal/fleet, cmd/fleet).
//
// Lower-level capabilities (exact expected-time evaluation, exact-model
// planning, placement ablations, platform data) live in the internal
// packages and are re-exported here where downstream users need them.
package respat

import (
	"io"

	"respat/internal/adapt"
	"respat/internal/analytic"
	"respat/internal/core"
	"respat/internal/engine"
	"respat/internal/fleet"
	"respat/internal/multilevel"
	"respat/internal/optimize"
	"respat/internal/platform"
	"respat/internal/service"
	"respat/internal/sim"
	"respat/internal/twolevel"
)

// Core model types.
type (
	// Costs groups the resilience cost parameters (CD, CM, RD, RM, V*,
	// V, r), all in seconds except the recall r in (0,1].
	Costs = core.Costs
	// Rates holds the fail-stop and silent error rates (per second).
	Rates = core.Rates
	// Kind enumerates the six pattern families of Table 1.
	Kind = core.Kind
	// Pattern is the computational unit P(W, n, α, m, β).
	Pattern = core.Pattern
	// Plan is an optimised pattern: W*, n*, m* and predicted overhead.
	Plan = analytic.Plan
	// ExactPlan is a plan optimised under the exact (non-truncated)
	// expected-time model.
	ExactPlan = optimize.ExactPlan
	// Platform bundles a machine's node count, error rates and costs.
	Platform = platform.Platform
)

// The six pattern families of Table 1, from the Young/Daly-style base
// pattern (PD) to the full two-level pattern with partial
// verifications (PDMV).
const (
	PD       = core.PD       // disk checkpoints only
	PDVStar  = core.PDVStar  // + intermediate guaranteed verifications
	PDV      = core.PDV      // + intermediate partial verifications
	PDM      = core.PDM      // + intermediate memory checkpoints
	PDMVStar = core.PDMVStar // memory checkpoints + guaranteed verifications
	PDMV     = core.PDMV     // memory checkpoints + partial verifications
)

// Kinds returns all six pattern families in Table 1 order.
func Kinds() []Kind { return core.Kinds() }

// ParseKind converts a family name ("PDMV*", case-insensitive) to a Kind.
func ParseKind(s string) (Kind, error) { return core.ParseKind(s) }

// Optimal returns the first-order optimal plan of family k (Table 1)
// for the given costs and error rates.
func Optimal(k Kind, c Costs, r Rates) (Plan, error) {
	return analytic.Optimal(k, c, r)
}

// OptimalExact returns the plan minimising the exact renewal-equation
// expected overhead (no first-order truncation). It is slower than
// Optimal and rarely more than a fraction of a percent better.
func OptimalExact(k Kind, c Costs, r Rates) (ExactPlan, error) {
	return optimize.Exact(k, c, r)
}

// PredictOverhead returns the closed-form Table 1 overhead H*(P) of
// family k (continuous relaxation).
func PredictOverhead(k Kind, c Costs, r Rates) float64 {
	return analytic.TableOverhead(k, c, r)
}

// ExpectedTime evaluates the exact expected execution time of an
// arbitrary pattern under the Section 2 protocol.
func ExpectedTime(p Pattern, c Costs, r Rates) (float64, error) {
	return analytic.ExactExpectedTime(p, c, r)
}

// Evaluator is a reusable exact expected-time evaluator bound to one
// (costs, rates) configuration: it validates once and evaluates a
// Theorem 4 layout with a constant number of transcendental
// operations. Use it instead of ExpectedTime in planning loops.
type Evaluator = analytic.Evaluator

// NewEvaluator validates the configuration once and returns an
// evaluator bound to it. An Evaluator is immutable and safe for
// concurrent use.
func NewEvaluator(c Costs, r Rates) (*Evaluator, error) {
	return analytic.NewEvaluator(c, r)
}

// Simulation re-exports.
type (
	// SimConfig parameterises a Monte-Carlo campaign.
	SimConfig = sim.Config
	// SimResult aggregates a campaign.
	SimResult = sim.Result
)

// Simulate runs a Monte-Carlo campaign validating a pattern.
func Simulate(cfg SimConfig) (SimResult, error) { return sim.Run(cfg) }

// Engine re-exports.
type (
	// Application is a computation protectable by the engine
	// (Advance/Snapshot/Restore).
	Application = engine.Application
	// Verifier checks an application for silent corruption.
	Verifier = engine.Verifier
	// VerifierFunc adapts a function to Verifier.
	VerifierFunc = engine.VerifierFunc
	// WorkFunc adapts a stateless function to Application
	// (measurement-only workloads).
	WorkFunc = engine.WorkFunc
	// EngineConfig assembles an engine run.
	EngineConfig = engine.Config
	// EngineReport summarises an engine run.
	EngineReport = engine.Report
	// Storage persists two-level checkpoints.
	Storage = engine.Storage
)

// Protect executes a real application under a pattern with two-level
// checkpointing, verification and recovery.
func Protect(cfg EngineConfig) (EngineReport, error) { return engine.Run(cfg) }

// Adaptive re-exports: the observe → fit → re-plan loop of
// internal/adapt.
type (
	// AdaptiveConfig assembles an adaptive session: pattern family,
	// costs, prior rates, estimator tuning and the regret threshold.
	AdaptiveConfig = adapt.Config
	// AdaptiveSession is one live observe → fit → re-plan loop; safe
	// for concurrent use.
	AdaptiveSession = adapt.Session
	// AdaptiveDecision reports what one observation did: fitted rates,
	// predicted overheads, regret and whether the plan was swapped.
	AdaptiveDecision = adapt.Decision
	// AdaptiveStatus is a snapshot of a session's counters and state.
	AdaptiveStatus = adapt.Status
	// AdaptiveController feeds an engine run's pattern-boundary
	// telemetry into a session (wire its Boundary method into
	// EngineConfig.Boundary).
	AdaptiveController = adapt.Controller
	// AdaptiveObservation is one censored interval observation: event
	// counts and exposure seconds per error source.
	AdaptiveObservation = adapt.Observation
)

// Adaptive opens an adaptive re-planning session: it plans the family
// at the prior rates, then refits the rates from the observations fed
// to Session.Observe and swaps plans when the incumbent's predicted
// overhead exceeds the optimum by the configured regret threshold.
func Adaptive(cfg AdaptiveConfig) (*AdaptiveSession, error) { return adapt.NewSession(cfg) }

// NewAdaptiveController binds a controller to a session so an engine
// run can drive it: pass ctl.Boundary as EngineConfig.Boundary. A
// controller belongs to exactly one engine run.
func NewAdaptiveController(s *AdaptiveSession) *AdaptiveController { return adapt.NewController(s) }

// Service re-exports: the online planning layer behind cmd/respatd,
// exposed so applications can embed the planning API in their own HTTP
// servers (mount Service.Handler() under a route of choice).
type (
	// Service plans, evaluates and compares patterns behind a sharded
	// SIEVE plan cache with request coalescing; safe for concurrent use.
	Service = service.Service
	// ServiceConfig sizes the service (cache shards and capacity,
	// batch-request parallelism). The zero value gets sane defaults.
	ServiceConfig = service.Config
)

// NewService builds a planning service. Service.Handler() returns its
// HTTP API (see cmd/respatd for the endpoint list).
func NewService(cfg ServiceConfig) *Service { return service.New(cfg) }

// Multilevel re-exports: patterns with a hierarchy of checkpoint
// levels combined with the paper's silent-error verifications
// (internal/multilevel) — the composition the Section 4.1 remark
// contrasts the single-level patterns against.
type (
	// MultilevelParams describes the hierarchy (per-level C_l/R_l and
	// fail-stop shares q_l), the verification costs and the rates.
	MultilevelParams = multilevel.Params
	// MultilevelLevel is one checkpoint level of the hierarchy.
	MultilevelLevel = multilevel.Level
	// MultilevelSpec is one concrete multilevel pattern
	// (W, n_1..n_L, m).
	MultilevelSpec = multilevel.Spec
	// MultilevelPlan is an optimised multilevel pattern.
	MultilevelPlan = multilevel.Plan
	// MultilevelEvaluator is the reusable exact expected-time evaluator
	// of the multilevel model.
	MultilevelEvaluator = multilevel.Evaluator
	// MultilevelSimConfig parameterises a multilevel Monte-Carlo
	// campaign.
	MultilevelSimConfig = sim.MultilevelConfig
	// MultilevelSimResult aggregates a multilevel campaign.
	MultilevelSimResult = sim.MultilevelResult
	// MultilevelEngineConfig assembles a multilevel runtime run
	// (per-level storage, level-aware rollback, Boundary swap hook).
	MultilevelEngineConfig = multilevel.EngineConfig
	// MultilevelReport summarises a multilevel runtime run.
	MultilevelReport = multilevel.Report
)

// OptimalMultilevel returns the plan minimising the exact expected
// overhead of the multilevel model over the pattern length, the
// per-level interval counts and the chunk count.
func OptimalMultilevel(p MultilevelParams) (MultilevelPlan, error) {
	return multilevel.Optimize(p)
}

// MultilevelFromPlatform derives a multilevel configuration with the
// given hierarchy depth from a Table 2 platform (geometric cost
// interpolation between the memory and disk tiers, Di et al.-style
// fail-stop locality shares).
func MultilevelFromPlatform(p Platform, levels int) (MultilevelParams, error) {
	return multilevel.FromPlatform(p, levels)
}

// MultilevelExpectedTime evaluates the exact expected execution time
// of a multilevel pattern; use NewMultilevelEvaluator in planning
// loops.
func MultilevelExpectedTime(p MultilevelParams, s MultilevelSpec) (float64, error) {
	return multilevel.ExpectedTime(p, s)
}

// NewMultilevelEvaluator validates the configuration once and returns
// an evaluator bound to it; it is immutable and safe for concurrent
// use.
func NewMultilevelEvaluator(p MultilevelParams) (*MultilevelEvaluator, error) {
	return multilevel.NewEvaluator(p)
}

// SimulateMultilevel runs a Monte-Carlo campaign validating a
// multilevel pattern (per-level exposure rollback, deterministic for
// any worker count).
func SimulateMultilevel(cfg MultilevelSimConfig) (MultilevelSimResult, error) {
	return sim.RunMultilevel(cfg)
}

// ProtectMultilevel executes a real application under a multilevel
// pattern with per-level checkpoints, verification and level-aware
// recovery; the Boundary hook is the plan-swap point for adaptive
// loops.
func ProtectMultilevel(cfg MultilevelEngineConfig) (MultilevelReport, error) {
	return multilevel.RunEngine(cfg)
}

// Two-level comparator re-exports (internal/twolevel): the classic
// two-level fail-stop protocol of the Section 4.1 remark, exposed so
// the paper's structural comparison is runnable from the facade and
// cmd/respat -mode twolevel.
type (
	// TwoLevelParams describes the two-level fail-stop protocol
	// (rate, local share, local/disk checkpoint and recovery costs).
	TwoLevelParams = twolevel.Params
	// TwoLevelPlan is the numerically optimised two-level plan.
	TwoLevelPlan = twolevel.Plan
	// TwoLevelComparison sets the two-level optimum against the
	// rate-matched single-level disk-only baseline.
	TwoLevelComparison = twolevel.Comparison
)

// CompareTwoLevel optimises the two-level fail-stop protocol and its
// disk-only degeneration for the same error rate and reports the gain
// of the local level. The multilevel evaluator reproduces these
// numbers at L = 2 with a zero silent-error rate (asserted in
// internal/multilevel).
func CompareTwoLevel(p TwoLevelParams) (TwoLevelComparison, error) {
	return twolevel.Compare(p)
}

// Fleet re-exports: the deterministic fleet-scale discrete-event
// simulator (internal/fleet) behind cmd/fleet — open-loop job arrivals
// against a shared cluster, per-job resilience plans from the exact
// planners, per-job fault injection on the internal/sim exposure
// clocks, and SLO metrics.
type (
	// FleetConfig assembles a fleet campaign: platform, cluster size,
	// workload (synthesized or trace-driven), resilience mode and seed.
	FleetConfig = fleet.Config
	// FleetJob is one job of a fleet workload.
	FleetJob = fleet.Job
	// FleetMode selects the per-job resilience plan family.
	FleetMode = fleet.Mode
	// FleetResult is the campaign report (makespan, utilization,
	// queue-delay / overhead / sojourn distributions, event totals and
	// per-shape plans); Result.JSON is byte-identical for any worker
	// count at a fixed seed.
	FleetResult = fleet.Result
)

// The fleet resilience modes.
const (
	// FleetPattern plans each job with the paper's single-level
	// patterns (Optimal + exact refinement).
	FleetPattern = fleet.ModePattern
	// FleetTwoLevel plans each job with a two-level checkpoint
	// hierarchy (multilevel planner at L = 2).
	FleetTwoLevel = fleet.ModeTwoLevel
	// FleetMultilevel plans each job with the full multilevel
	// hierarchy (FleetConfig.Levels, default 3).
	FleetMultilevel = fleet.ModeMultilevel
)

// SimulateFleet runs a fleet campaign: plan every distinct job shape
// once with the exact planners, simulate every job's fault-injected execution
// in parallel, dispatch the jobs through the FIFO/backfill queue and
// reduce the SLO metrics deterministically.
func SimulateFleet(cfg FleetConfig) (FleetResult, error) { return fleet.Run(cfg) }

// ParseFleetMode converts a mode name (pattern | twolevel |
// multilevel, case-insensitive) to a FleetMode.
func ParseFleetMode(s string) (FleetMode, error) { return fleet.ParseMode(s) }

// ParseFleetTrace reads the cmd/fleet job-trace format (documented in
// docs/api.md) into a workload for FleetConfig.Trace; def is the mode
// of jobs that do not name one.
func ParseFleetTrace(r io.Reader, def FleetMode) ([]FleetJob, error) {
	return fleet.ParseTrace(r, def)
}

// Platforms returns the four Table 2 platforms (Hera, Atlas, Coastal,
// Coastal-SSD) with the paper's simulation default costs.
func Platforms() []Platform { return platform.Table2() }

// PlatformByName returns the named Table 2 platform.
func PlatformByName(name string) (Platform, error) { return platform.ByName(name) }
