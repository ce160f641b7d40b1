package faultfit

import (
	"fmt"
	"math"
)

// OnlineConfig parameterises an OnlineRate estimator. The zero value is
// completed by WithDefaults relative to the prior rate.
type OnlineConfig struct {
	// PriorRate is the rate believed before any observation arrives —
	// typically the rate the current plan was computed for. It anchors
	// the posterior so that short or event-free windows shrink towards
	// the prior instead of collapsing to zero or NaN.
	PriorRate float64
	// PriorExposure is the pseudo-exposure (seconds) the prior counts
	// for: the posterior behaves as if PriorRate had already been
	// observed over PriorExposure seconds. Default: the exposure over
	// which the prior rate would produce four events (4/PriorRate), or
	// one second when PriorRate is zero.
	PriorExposure float64
	// HalfLife is the exponential-forgetting half-life in exposure
	// seconds: evidence this old counts half. Zero disables forgetting
	// (all history weighs equally until a drift reset).
	HalfLife float64
	// Window is the number of recent observations kept for the drift
	// detector and the windowed estimate (default 16, minimum 2,
	// maximum MaxWindow — the ring is allocated up front).
	Window int
	// DriftGLR is the Poisson generalised-likelihood-ratio threshold
	// above which the recent window is declared drifted from the
	// long-run estimate, discarding pre-window history. Roughly: 2·GLR
	// is χ²(1)-distributed under no drift, so the default of 8
	// corresponds to ~4σ evidence. A negative value disables drift
	// detection (zero selects the default).
	DriftGLR float64
}

// WithDefaults returns the config with unset fields filled: the
// completed form NewOnlineRate runs with, exposed so callers that
// store the config (e.g. for consistency checks against later
// requests) see the effective values rather than the zero ones.
func (c OnlineConfig) WithDefaults() OnlineConfig {
	if c.PriorExposure == 0 {
		if c.PriorRate > 0 {
			c.PriorExposure = 4 / c.PriorRate
		} else {
			c.PriorExposure = 1
		}
	}
	if c.Window == 0 {
		c.Window = 16
	}
	if c.DriftGLR == 0 {
		c.DriftGLR = 8
	}
	return c
}

// validate rejects non-finite or out-of-range knobs.
func (c OnlineConfig) validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"PriorRate", c.PriorRate}, {"PriorExposure", c.PriorExposure},
		{"HalfLife", c.HalfLife},
	} {
		if p.v < 0 || math.IsNaN(p.v) || math.IsInf(p.v, 0) {
			return fmt.Errorf("faultfit: online config %s = %v, need finite >= 0", p.name, p.v)
		}
	}
	if math.IsNaN(c.DriftGLR) || math.IsInf(c.DriftGLR, 0) {
		return fmt.Errorf("faultfit: online config DriftGLR = %v, need finite (negative disables)", c.DriftGLR)
	}
	if c.PriorExposure == 0 {
		return fmt.Errorf("faultfit: online config PriorExposure must be positive")
	}
	if c.Window < 2 || c.Window > MaxWindow {
		return fmt.Errorf("faultfit: online config Window = %d, need 2..%d", c.Window, MaxWindow)
	}
	return nil
}

// MaxWindow bounds OnlineConfig.Window. The ring is allocated eagerly,
// so an unbounded window would let one untrusted config (e.g. a
// respatd observe request) force an arbitrarily large allocation.
const MaxWindow = 1 << 16

// intervalObs is one censored interval observation.
type intervalObs struct {
	events, exposure float64
}

// OnlineRate estimates the arrival rate of a Poisson error process from
// a stream of censored interval observations: "k events occurred over t
// seconds of exposure". Interval data (rather than exact arrival times)
// is what a pattern-boundary observer naturally sees, and it handles
// censoring for free — an event-free interval is evidence too.
//
// The estimate is the mean of a Gamma-conjugate posterior,
//
//	rate = (PriorRate·PriorExposure + Σ events) / (PriorExposure + Σ exposure),
//
// with two freshness mechanisms layered on the sums: exponential
// forgetting with a configurable half-life (old evidence fades), and a
// change-point detector comparing the recent observation window against
// the long-run estimate with a Poisson generalised likelihood ratio —
// when the window is incompatible with the history, the history is
// discarded so the estimate re-converges at window speed rather than
// half-life speed.
//
// The prior pseudo-exposure guarantees the estimate is always finite
// and, for a positive prior, always positive: few or zero events can
// never produce a NaN or zero-rate plan. An OnlineRate is not safe for
// concurrent use.
type OnlineRate struct {
	cfg OnlineConfig

	priorExp float64 // live prior pseudo-exposure (shrunk at drift resets)
	events   float64 // decayed observed event total
	exposure float64 // decayed observed exposure total

	ring   []intervalObs // last Window observations
	next   int
	filled int
	winE   float64 // Σ events over the ring
	winT   float64 // Σ exposure over the ring

	observations int64
	drifts       int64
}

// NewOnlineRate builds an estimator; zero config fields get defaults
// derived from the prior rate.
func NewOnlineRate(cfg OnlineConfig) (*OnlineRate, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &OnlineRate{cfg: cfg, priorExp: cfg.PriorExposure, ring: make([]intervalObs, cfg.Window)}, nil
}

// ValidateInterval checks one censored interval observation without
// ingesting it: events must be >= 0, exposure finite and >= 0, and
// events over zero exposure are rejected (a degenerate infinite-rate
// observation). Callers that must stay atomic across several estimators
// validate every interval up front before observing any of them.
func ValidateInterval(events int64, exposure float64) error {
	if events < 0 {
		return fmt.Errorf("faultfit: observed %d events, need >= 0", events)
	}
	if exposure < 0 || math.IsNaN(exposure) || math.IsInf(exposure, 0) {
		return fmt.Errorf("faultfit: observed exposure %v, need finite >= 0", exposure)
	}
	if events > 0 && exposure == 0 {
		return fmt.Errorf("faultfit: observed %d events over zero exposure", events)
	}
	return nil
}

// Observe ingests one interval observation: events arrivals over
// exposure seconds. A zero-event interval is valid censoring evidence,
// a fully-empty interval (zero events, zero exposure) is a no-op, and
// events over zero exposure are rejected.
func (o *OnlineRate) Observe(events int64, exposure float64) error {
	if err := ValidateInterval(events, exposure); err != nil {
		return err
	}
	if events == 0 && exposure == 0 {
		return nil
	}
	// Forgetting: decay the totals by the exposure that just elapsed.
	if o.cfg.HalfLife > 0 && exposure > 0 {
		g := math.Exp2(-exposure / o.cfg.HalfLife)
		o.events *= g
		o.exposure *= g
	}
	o.events += float64(events)
	o.exposure += exposure

	// Slide the drift window.
	old := o.ring[o.next]
	o.ring[o.next] = intervalObs{events: float64(events), exposure: exposure}
	o.next = (o.next + 1) % len(o.ring)
	if o.filled < len(o.ring) {
		o.filled++
	} else {
		o.winE -= old.events
		o.winT -= old.exposure
	}
	o.winE += float64(events)
	o.winT += exposure
	o.observations++

	if o.cfg.DriftGLR > 0 && o.filled == len(o.ring) && o.driftGLR() > o.cfg.DriftGLR {
		// Change point: the window contradicts the history. Restart the
		// posterior from the window alone so the estimate tracks the new
		// regime at window speed. The prior belief predates the change
		// too, so its pseudo-exposure is cut to a small fraction of the
		// window's — it keeps anchoring against zero-event degeneracy
		// without dragging the post-change estimate (a cap at the full
		// window weight would pin the posterior halfway to the prior and
		// re-trigger the detector indefinitely).
		o.events = o.winE
		o.exposure = o.winT
		if limit := o.winT / 8; limit > 0 && o.priorExp > limit {
			o.priorExp = limit
		}
		o.drifts++
	}
	return nil
}

// driftGLR returns the Poisson generalised likelihood ratio of the
// window counts under the windowed MLE versus the long-run estimate:
//
//	GLR = k·ln(λw/λh) − (λw − λh)·t,   λw = k/t.
//
// For k = 0 the first term vanishes and the statistic reduces to λh·t,
// the evidence carried by an unexpectedly silent window.
func (o *OnlineRate) driftGLR() float64 {
	if o.winT <= 0 {
		return 0
	}
	lh := o.Rate()
	if lh <= 0 {
		return 0
	}
	lw := o.winE / o.winT
	if lw == 0 {
		return lh * o.winT
	}
	return o.winE*math.Log(lw/lh) - (lw-lh)*o.winT
}

// Rate returns the current posterior-mean rate estimate. It is finite
// for any observation history, and positive whenever the prior rate or
// any observed event count is.
func (o *OnlineRate) Rate() float64 {
	if o.events == 0 && o.exposure == 0 {
		// No evidence yet: exactly the prior (the blended form below
		// would reproduce it only up to rounding).
		return o.cfg.PriorRate
	}
	den := o.priorExp + o.exposure
	if den <= 0 {
		return o.cfg.PriorRate
	}
	return (o.cfg.PriorRate*o.priorExp + o.events) / den
}

// Observations returns the number of non-empty intervals ingested.
func (o *OnlineRate) Observations() int64 { return o.observations }

// Drifts returns the number of change-point resets triggered.
func (o *OnlineRate) Drifts() int64 { return o.drifts }
