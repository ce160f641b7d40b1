// Package chaos is the fault-injection and overload-testing harness of
// respatd. It wraps a service.Config with injectable faults — planner
// latency and jitter, forced cold-plan errors, clock skew and scale on
// the latency observations feeding Retry-After — plus a closed-loop
// load driver (Drive) that hammers the service's HTTP handler and
// reports per-request dispositions. The chaos suite uses both to
// assert the overload invariants of DESIGN.md §2.8: bounded queue
// depth, bounded hit latency, no goroutine leaks after drain, and
// monotone shed → recover.
//
// Everything here is deterministic: injected jitter comes from a
// seeded splitmix64 stream keyed by the fault sequence number, never
// from math/rand's global state or the wall clock.
package chaos

import (
	"context"
	"errors"
	"sync/atomic"
	"time"

	"respat/internal/service"
)

// ErrInjected is the error a forced cold-plan fault returns. The HTTP
// layer has no special case for it, so it surfaces like any planner
// failure — which is the point: the suite asserts injected failures
// are never cached.
var ErrInjected = errors.New("chaos: injected cold-plan fault")

// Injector generates the faults. The zero value injects nothing.
// Configure it, then Apply it to a service.Config before service.New.
// SetFailEvery may be called while a drive is running; the other
// fields must be set before Apply.
type Injector struct {
	// PlannerDelay is added to every admitted cold-plan computation,
	// simulating a slow search. It honours the computation's context:
	// an abandoned plan stops sleeping.
	PlannerDelay time.Duration
	// PlannerJitter adds a deterministic pseudo-random extra delay in
	// [0, PlannerJitter) per computation, drawn from Seed.
	PlannerJitter time.Duration
	// Seed keys the jitter stream. Two injectors with equal Seed and
	// fault sequence produce identical delays.
	Seed uint64
	// ClockSkew is added to every reading of the service clock,
	// simulating a stepped clock. A constant skew cancels in the
	// latency differences; pair it with ClockScale to corrupt them.
	ClockSkew time.Duration
	// ClockScale multiplies elapsed time as seen by the service clock
	// (0 means 1: unscaled). A scale of 1000 makes a 1ms cold plan
	// look like 1s to the cold-plan p90, which reads anything above
	// 10s as 10s; the clamp in the admission gate is what keeps the
	// Retry-After advice bounded anyway.
	ClockScale float64

	failEvery atomic.Int64 // every Nth fault call fails; 0 = never
	calls     atomic.Int64 // fault sequence number
	epoch     time.Time    // ClockScale reference point, set by Apply
}

// SetFailEvery arranges for every nth admitted cold plan to fail with
// ErrInjected (n <= 0 disables failures). Safe to call concurrently
// with a running drive.
func (in *Injector) SetFailEvery(n int) { in.failEvery.Store(int64(n)) }

// Calls returns how many cold-plan computations reached the fault
// hook.
func (in *Injector) Calls() int64 { return in.calls.Load() }

// Apply returns cfg with the injector's fault hook and clock wired in.
func (in *Injector) Apply(cfg service.Config) service.Config {
	in.epoch = time.Now()
	cfg.ColdFault = in.fault
	cfg.Now = in.now
	return cfg
}

// fault is the injected cold-plan hook: sleep the configured delay
// plus jitter (respecting ctx), then fail if this call's sequence
// number is a multiple of failEvery.
func (in *Injector) fault(ctx context.Context) error {
	n := in.calls.Add(1)
	d := in.PlannerDelay
	if in.PlannerJitter > 0 {
		d += time.Duration(splitmix64(in.Seed+uint64(n)) % uint64(in.PlannerJitter))
	}
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if every := in.failEvery.Load(); every > 0 && n%every == 0 {
		return ErrInjected
	}
	return nil
}

// now is the skewed, scaled service clock.
func (in *Injector) now() time.Time {
	t := time.Now()
	if in.ClockScale != 0 && in.ClockScale != 1 {
		t = in.epoch.Add(time.Duration(float64(t.Sub(in.epoch)) * in.ClockScale))
	}
	return t.Add(in.ClockSkew)
}

// splitmix64 is the standard 64-bit mix (Steele et al.), enough for
// jitter and far better than sharing math/rand's locked global.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
