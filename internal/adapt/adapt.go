package adapt

import (
	"fmt"
	"math"
	"sync"

	"respat/internal/analytic"
	"respat/internal/core"
	"respat/internal/faultfit"
)

// Config assembles an adaptive planning session.
type Config struct {
	// Kind is the pattern family planned throughout the session.
	Kind core.Kind
	// Costs are the platform's resilience costs (fixed; only rates are
	// re-estimated).
	Costs core.Costs
	// Prior holds the error rates believed at session start — typically
	// the rates the platform was commissioned with. The initial plan is
	// the optimal plan at these rates, and the estimators shrink
	// towards them until observations accumulate.
	Prior core.Rates
	// FailStop and Silent tune the two online estimators (window size,
	// forgetting half-life, drift threshold, prior pseudo-exposure).
	// Their PriorRate fields are overwritten from Prior; the zero value
	// gets the faultfit defaults.
	FailStop faultfit.OnlineConfig
	Silent   faultfit.OnlineConfig
	// RegretThreshold is the re-plan trigger: swap plans when the
	// current plan's predicted overhead exceeds the optimum at the
	// fitted rates by more than this relative margin. The zero value
	// selects the default of 0.05 (5 % excess overhead tolerated
	// before a swap); to re-plan on any measurable regret use a tiny
	// positive threshold instead of zero.
	RegretThreshold float64
	// MinObservations is the number of non-empty observations required
	// before the first swap may fire, guarding against re-planning off
	// one noisy window. The zero value selects the default of 4; use 1
	// to allow a swap after the first observation.
	MinObservations int
}

// withDefaults fills unset tuning fields.
func (c Config) withDefaults() Config {
	if c.RegretThreshold == 0 {
		c.RegretThreshold = 0.05
	}
	if c.MinObservations == 0 {
		c.MinObservations = 4
	}
	c.FailStop.PriorRate = c.Prior.FailStop
	c.Silent.PriorRate = c.Prior.Silent
	// Complete the estimator configs too, so Session.Config() reports
	// the effective tuning (window, drift threshold, pseudo-exposure)
	// rather than zero placeholders.
	c.FailStop = c.FailStop.WithDefaults()
	c.Silent = c.Silent.WithDefaults()
	return c
}

// Observation is one censored interval observation: event counts and
// the exposure seconds over which they were collected, per error
// source. Exposure is time on the error clocks (time at risk), not
// wall-clock time — engine.Report exports it directly.
type Observation struct {
	FailStopEvents   int64
	SilentEvents     int64
	FailStopExposure float64
	SilentExposure   float64
}

// Decision reports what one observation did to the session.
type Decision struct {
	// Rates are the fitted rates after ingesting the observation.
	Rates core.Rates
	// CurrentOverhead is the exact expected overhead of the
	// pre-decision plan evaluated at the fitted rates.
	CurrentOverhead float64
	// OptimalOverhead is the exact expected overhead of the plan that
	// is optimal at the fitted rates.
	OptimalOverhead float64
	// Regret is (CurrentOverhead - OptimalOverhead) / OptimalOverhead,
	// the relative excess overhead of keeping the current plan.
	Regret float64
	// Replanned reports whether the session swapped to the new plan.
	Replanned bool
	// Plan is the session's plan after the decision (the new plan when
	// Replanned, the incumbent otherwise).
	Plan analytic.Plan
	// Observations, Swaps and Drifts are the session counters
	// immediately after this decision, read atomically with it —
	// unlike a separate Status call, they cannot reflect a concurrent
	// later observation.
	Observations int64
	Swaps        int64
	Drifts       int64
}

// Status is a snapshot of a session's counters and state.
type Status struct {
	Kind core.Kind
	// Observations counts ingested non-empty observations; Swaps counts
	// plan swaps; Drifts counts change-point resets across both
	// estimators. Swaps counts recommendation changes: a swap decided at
	// an engine run's final pattern boundary is counted here (and in
	// PredictedSavings) even though engine.Run skips installing it —
	// the session's plan is the right starting point for the next run —
	// so Swaps can exceed that run's Report.PlanSwaps by one.
	Observations int64
	Swaps        int64
	Drifts       int64
	// PredictedSavings accumulates, over all swaps, the predicted
	// overhead reduction (CurrentOverhead - OptimalOverhead at the
	// then-fitted rates): the dimensionless overhead the session
	// expects to have shaved off by re-planning.
	PredictedSavings float64
	// Rates are the current fitted rates; Plan is the current plan.
	Rates core.Rates
	Plan  analytic.Plan
}

// Session is one adaptive re-planning loop: it owns the two online
// rate estimators, the current plan, and the regret rule that decides
// when to swap. All methods are safe for concurrent use.
type Session struct {
	mu  sync.Mutex
	cfg Config

	fs  *faultfit.OnlineRate
	sil *faultfit.OnlineRate

	plan analytic.Plan

	// Memoised regret evaluation: empty observations (session polls)
	// and zero-delta telemetry leave the fitted rates bit-identical, so
	// the optimization and both exact overhead evaluations would only
	// reproduce the previous answer. Keyed by the fitted rates and the
	// incumbent plan's (N, M, W) identity.
	memoValid        bool
	memoRates        core.Rates
	memoN, memoM     int
	memoW            float64
	memoCur, memoOpt float64
	memoCand         analytic.Plan

	observations int64
	swaps        int64
	savings      float64
}

// NewSession validates the configuration, computes the initial plan
// (optimal at the prior rates) and returns a live session.
func NewSession(cfg Config) (*Session, error) {
	cfg = cfg.withDefaults()
	if cfg.RegretThreshold < 0 || math.IsNaN(cfg.RegretThreshold) || math.IsInf(cfg.RegretThreshold, 0) {
		return nil, fmt.Errorf("adapt: RegretThreshold = %v, need finite >= 0", cfg.RegretThreshold)
	}
	if cfg.MinObservations < 0 {
		return nil, fmt.Errorf("adapt: MinObservations = %d, need >= 0", cfg.MinObservations)
	}
	plan, err := analytic.Optimal(cfg.Kind, cfg.Costs, cfg.Prior)
	if err != nil {
		return nil, err
	}
	fs, err := faultfit.NewOnlineRate(cfg.FailStop)
	if err != nil {
		return nil, err
	}
	sil, err := faultfit.NewOnlineRate(cfg.Silent)
	if err != nil {
		return nil, err
	}
	return &Session{cfg: cfg, fs: fs, sil: sil, plan: plan}, nil
}

// Kind returns the session's pattern family.
func (s *Session) Kind() core.Kind { return s.cfg.Kind }

// Config returns the session's configuration as completed at creation
// (defaults filled); it never changes over the session's lifetime.
func (s *Session) Config() Config { return s.cfg }

// Costs returns the session's resilience costs.
func (s *Session) Costs() core.Costs { return s.cfg.Costs }

// Prior returns the rates the session was created with.
func (s *Session) Prior() core.Rates { return s.cfg.Prior }

// Observe ingests one observation, refits the rates, and applies the
// regret rule: if the current plan's exact expected overhead at the
// fitted rates exceeds the optimum's by more than RegretThreshold, the
// session swaps to the optimal plan. The returned Decision reports the
// fitted rates, both overheads and whether a swap happened.
func (s *Session) Observe(o Observation) (Decision, error) {
	// Validate both halves before ingesting either, so a rejected
	// observation never leaves the session half-updated.
	if err := faultfit.ValidateInterval(o.FailStopEvents, o.FailStopExposure); err != nil {
		return Decision{}, err
	}
	if err := faultfit.ValidateInterval(o.SilentEvents, o.SilentExposure); err != nil {
		return Decision{}, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.fs.Observe(o.FailStopEvents, o.FailStopExposure); err != nil {
		return Decision{}, err
	}
	if err := s.sil.Observe(o.SilentEvents, o.SilentExposure); err != nil {
		return Decision{}, err
	}
	if o != (Observation{}) {
		s.observations++
	}

	fitted := core.Rates{FailStop: s.fs.Rate(), Silent: s.sil.Rate()}
	d := Decision{Rates: fitted, Plan: s.plan}
	var cand analytic.Plan
	if s.memoValid && fitted == s.memoRates &&
		s.plan.N == s.memoN && s.plan.M == s.memoM && s.plan.W == s.memoW {
		d.CurrentOverhead, d.OptimalOverhead = s.memoCur, s.memoOpt
		cand = s.memoCand
	} else {
		ev, err := analytic.NewEvaluator(s.cfg.Costs, fitted)
		if err != nil {
			return Decision{}, err
		}
		d.CurrentOverhead, err = ev.EvalLayoutOverhead(s.cfg.Kind, s.plan.N, s.plan.M, s.plan.W)
		if err != nil {
			return Decision{}, err
		}
		cand, err = analytic.Optimal(s.cfg.Kind, s.cfg.Costs, fitted)
		if err != nil {
			return Decision{}, err
		}
		d.OptimalOverhead, err = ev.EvalLayoutOverhead(s.cfg.Kind, cand.N, cand.M, cand.W)
		if err != nil {
			return Decision{}, err
		}
		s.memoValid = true
		s.memoRates = fitted
		s.memoN, s.memoM, s.memoW = s.plan.N, s.plan.M, s.plan.W
		s.memoCur, s.memoOpt = d.CurrentOverhead, d.OptimalOverhead
		s.memoCand = cand
	}
	if d.OptimalOverhead > 0 {
		d.Regret = (d.CurrentOverhead - d.OptimalOverhead) / d.OptimalOverhead
	}
	if s.observations >= int64(s.cfg.MinObservations) && d.Regret > s.cfg.RegretThreshold {
		s.plan = cand
		s.swaps++
		s.savings += d.CurrentOverhead - d.OptimalOverhead
		d.Replanned = true
		d.Plan = cand
	}
	d.Observations = s.observations
	d.Swaps = s.swaps
	d.Drifts = s.fs.Drifts() + s.sil.Drifts()
	return d, nil
}

// Rates returns the current fitted rates.
func (s *Session) Rates() core.Rates {
	s.mu.Lock()
	defer s.mu.Unlock()
	return core.Rates{FailStop: s.fs.Rate(), Silent: s.sil.Rate()}
}

// Plan returns the current plan.
func (s *Session) Plan() analytic.Plan {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.plan
}

// Status returns a snapshot of the session's counters and state.
func (s *Session) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Status{
		Kind:             s.cfg.Kind,
		Observations:     s.observations,
		Swaps:            s.swaps,
		Drifts:           s.fs.Drifts() + s.sil.Drifts(),
		PredictedSavings: s.savings,
		Rates:            core.Rates{FailStop: s.fs.Rate(), Silent: s.sil.Rate()},
		Plan:             s.plan,
	}
}
