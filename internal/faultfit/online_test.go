package faultfit

import (
	"math"
	"testing"
)

func TestOnlineRateStartsAtPrior(t *testing.T) {
	o, err := NewOnlineRate(OnlineConfig{PriorRate: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if got := o.Rate(); got != 1e-4 {
		t.Fatalf("rate before any observation = %v, want prior 1e-4", got)
	}
}

func TestOnlineRateCensoredWindowsStayPositiveFinite(t *testing.T) {
	o, err := NewOnlineRate(OnlineConfig{PriorRate: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	// A long run of event-free exposure: the estimate must decay towards
	// zero without ever reaching it, and never go NaN.
	prev := o.Rate()
	for i := 0; i < 200; i++ {
		if err := o.Observe(0, 5000); err != nil {
			t.Fatal(err)
		}
		r := o.Rate()
		if math.IsNaN(r) || math.IsInf(r, 0) || r <= 0 {
			t.Fatalf("censored observation %d: rate = %v, want positive finite", i, r)
		}
		if r > prev {
			t.Fatalf("censored observation %d: rate rose %v -> %v", i, prev, r)
		}
		prev = r
	}
}

func TestOnlineRateShortWindowsDoNotOverreact(t *testing.T) {
	o, err := NewOnlineRate(OnlineConfig{PriorRate: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	// One event over a tiny exposure would MLE to 1 event/s; the prior
	// pseudo-exposure must keep the posterior sane.
	if err := o.Observe(1, 1); err != nil {
		t.Fatal(err)
	}
	if r := o.Rate(); r > 10*1e-5 {
		t.Fatalf("one short-window event moved the rate to %v (prior 1e-5)", r)
	}
}

func TestOnlineRateZeroExposureEventsRejected(t *testing.T) {
	// Events over zero exposure are a degenerate infinite-rate
	// observation: rejected, leaving the estimate untouched.
	o, err := NewOnlineRate(OnlineConfig{PriorRate: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Observe(3, 0); err == nil {
		t.Fatal("events over zero exposure accepted")
	}
	if r := o.Rate(); r != 1e-5 {
		t.Fatalf("rejected zero-exposure events moved the rate to %v", r)
	}
}

func TestOnlineRateConvergesToTrueRate(t *testing.T) {
	o, err := NewOnlineRate(OnlineConfig{PriorRate: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	// 100 windows at the true rate 1e-3: 10 events per 10,000 s.
	for i := 0; i < 100; i++ {
		if err := o.Observe(10, 10_000); err != nil {
			t.Fatal(err)
		}
	}
	if r := o.Rate(); r < 0.8e-3 || r > 1.2e-3 {
		t.Fatalf("rate %v after 100 windows at 1e-3", r)
	}
}

func TestOnlineRateDriftResetAccelerates(t *testing.T) {
	slow, err := NewOnlineRate(OnlineConfig{PriorRate: 1e-5, Window: 8, DriftGLR: -1})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := NewOnlineRate(OnlineConfig{PriorRate: 1e-5, Window: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Long quiet history at the prior rate, then a 100x shift.
	feed := func(o *OnlineRate, events int64, exposure float64, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if err := o.Observe(events, exposure); err != nil {
				t.Fatal(err)
			}
		}
	}
	feed(slow, 1, 100_000, 50) // ~1e-5
	feed(fast, 1, 100_000, 50)
	feed(slow, 10, 10_000, 10) // 1e-3
	feed(fast, 10, 10_000, 10)
	if fast.Drifts() == 0 {
		t.Fatal("drift detector never fired on a 100x rate shift")
	}
	if slow.Drifts() != 0 {
		t.Fatal("disabled drift detector fired")
	}
	if fast.Rate() <= slow.Rate() {
		t.Fatalf("drift reset did not accelerate: fast %v <= slow %v", fast.Rate(), slow.Rate())
	}
	if r := fast.Rate(); r < 0.3e-3 {
		t.Fatalf("post-drift rate %v still far from true 1e-3", r)
	}
}

func TestOnlineRateHalfLifeForgets(t *testing.T) {
	o, err := NewOnlineRate(OnlineConfig{PriorRate: 1e-4, HalfLife: 50_000, DriftGLR: -1})
	if err != nil {
		t.Fatal(err)
	}
	// History at 1e-3, then fresh windows at 1e-5: with a 50,000 s
	// half-life the old regime fades within a few windows.
	for i := 0; i < 50; i++ {
		if err := o.Observe(10, 10_000); err != nil {
			t.Fatal(err)
		}
	}
	high := o.Rate()
	for i := 0; i < 50; i++ {
		if err := o.Observe(0, 50_000); err != nil {
			t.Fatal(err)
		}
	}
	if o.Rate() > high/10 {
		t.Fatalf("half-life forgetting too weak: %v -> %v", high, o.Rate())
	}
}

func TestOnlineRateRejectsBadObservations(t *testing.T) {
	o, err := NewOnlineRate(OnlineConfig{PriorRate: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Observe(-1, 10); err == nil {
		t.Error("negative events accepted")
	}
	if err := o.Observe(1, math.NaN()); err == nil {
		t.Error("NaN exposure accepted")
	}
	if err := o.Observe(1, math.Inf(1)); err == nil {
		t.Error("infinite exposure accepted")
	}
	if err := o.Observe(1, -5); err == nil {
		t.Error("negative exposure accepted")
	}
	if err := o.Observe(5, 0); err == nil {
		t.Error("events over zero exposure accepted")
	}
	if got := o.Rate(); got != 1e-4 {
		t.Fatalf("rejected observations moved the rate: %v", got)
	}
	if got := o.Observations(); got != 0 {
		t.Fatalf("rejected observations counted: %d", got)
	}
}

func TestOnlineRateConfigValidation(t *testing.T) {
	if _, err := NewOnlineRate(OnlineConfig{PriorRate: math.NaN()}); err == nil {
		t.Error("NaN prior accepted")
	}
	if _, err := NewOnlineRate(OnlineConfig{PriorRate: 1, Window: 1}); err == nil {
		t.Error("window of 1 accepted")
	}
	if _, err := NewOnlineRate(OnlineConfig{PriorRate: 1, Window: MaxWindow + 1}); err == nil {
		t.Error("window above MaxWindow accepted (unbounded eager allocation)")
	}
	if _, err := NewOnlineRate(OnlineConfig{PriorRate: 1, DriftGLR: math.NaN()}); err == nil {
		t.Error("NaN drift threshold accepted")
	}
	if _, err := NewOnlineRate(OnlineConfig{PriorRate: 1, DriftGLR: -1}); err != nil {
		t.Errorf("negative drift threshold (detector disabled) rejected: %v", err)
	}
}
