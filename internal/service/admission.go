package service

import (
	"context"
	"errors"
	"math"
	"sync/atomic"
	"time"

	"respat/internal/obs"
)

// ErrShed is returned by the gated cold-planning paths when the
// bounded wait queue is full: the request was shed without computing
// anything. The HTTP layer maps it to 429 with a Retry-After header
// derived from the observed cold-plan latency quantiles.
var ErrShed = errors.New("service: cold-plan queue full; request shed")

// ErrTooTight is returned (only in degraded mode) when a request's
// remaining deadline budget is smaller than the estimated cold-plan
// latency: running the exact search would just burn a worker slot to
// produce an answer nobody is left to read. The handler converts it
// into a degraded first-order response.
var ErrTooTight = errors.New("service: request deadline too tight for exact search")

// coldHalfLife is the number of cold-plan observations after which the
// gate halves its latency histogram, so the estimate follows the most
// recent few hundred cold plans rather than every plan since start.
const coldHalfLife = 256

// Bounds on the Retry-After advice, in seconds. The clamp is what
// keeps the advice sane when the latency observations are garbage —
// an injected clock skew (see internal/chaos), a cold start with no
// observations, a latency spike.
const (
	minRetryAfter = 1
	maxRetryAfter = 60
)

// gate is the cold-plan admission controller: a bounded worker pool
// (slots) fronted by a bounded wait queue. Cache hits never touch it —
// only the singleflight leaders of cold computations do, so coalesced
// requests for one key consume one slot between them. It also keeps
// the histogram of recent cold-plan wall times whose p90 sizes the
// Retry-After advice and the too-tight check.
//
// The queue bound is enforced with a CAS loop on queued, so the
// invariant "queued never exceeds queueCap" holds at every instant,
// not just on average — the chaos suite asserts it under 4x-capacity
// overload.
type gate struct {
	slots     chan struct{} // capacity = worker bound
	queueCap  int64
	queued    atomic.Int64 // requests currently waiting for a slot
	maxQueued atomic.Int64 // high-water mark of queued (observability)

	cold     obs.Histogram // cold-plan wall times, halved every coldHalfLife
	observed atomic.Int64  // observations recorded into cold
}

func newGate(workers, queue int) *gate {
	return &gate{
		slots:    make(chan struct{}, workers),
		queueCap: int64(queue),
	}
}

// acquire admits the caller to a worker slot. The fast path is a
// non-blocking slot grab; otherwise the caller joins the bounded wait
// queue, or is shed with ErrShed when the queue is full. A queued
// caller that gives up (ctx cancelled or expired) leaves the queue
// immediately and returns the ctx error.
func (g *gate) acquire(ctx context.Context) error {
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
	}
	for {
		q := g.queued.Load()
		if q >= g.queueCap {
			return ErrShed
		}
		if g.queued.CompareAndSwap(q, q+1) {
			for hw := g.maxQueued.Load(); q+1 > hw && !g.maxQueued.CompareAndSwap(hw, q+1); hw = g.maxQueued.Load() {
			}
			break
		}
	}
	defer g.queued.Add(-1)
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// release frees the slot taken by a successful acquire.
func (g *gate) release() { <-g.slots }

// depth returns the current wait-queue depth (the /metrics gauge).
func (g *gate) depth() int64 { return g.queued.Load() }

// maxDepth returns the queue-depth high-water mark.
func (g *gate) maxDepth() int64 { return g.maxQueued.Load() }

// workers returns the worker-slot bound.
func (g *gate) workers() int { return cap(g.slots) }

// observe records one cold-plan wall time.
func (g *gate) observe(d time.Duration) {
	g.cold.Observe(int64(d))
	if g.observed.Add(1)%coldHalfLife == 0 {
		g.cold.Halve()
	}
}

// estimate returns the p90 of recent cold-plan wall times in seconds,
// or 0 before the first observation. It is bucket-resolved and capped
// at the histogram's last finite bound, 10 s.
func (g *gate) estimate() float64 {
	return g.cold.Snapshot().Quantile(0.90) / 1e9
}

// retryAfter returns the advised client back-off in whole seconds:
// the time for the current queue (plus the caller) to drain through
// the worker pool at the estimated per-plan latency, clamped to
// [minRetryAfter, maxRetryAfter].
func (g *gate) retryAfter() int {
	est := g.estimate()
	if est <= 0 {
		return minRetryAfter
	}
	sec := math.Ceil(est * float64(g.depth()+1) / float64(g.workers()))
	if sec < minRetryAfter {
		return minRetryAfter
	}
	if sec > maxRetryAfter {
		return maxRetryAfter
	}
	return int(sec)
}
