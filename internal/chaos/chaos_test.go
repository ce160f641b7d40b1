package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"respat/internal/obs"
	"respat/internal/service"
)

// planBody builds a /v1/plan/exact body for the i-th synthetic
// configuration: distinct i give distinct cache keys, so every request
// is a cold plan.
func planBody(i int) string {
	return fmt.Sprintf(
		`{"kind":"PD","costs":{"DiskCkpt":%d,"DiskRec":30,"Recall":1},"rates":{"FailStop":1e-7}}`,
		60+i)
}

// multilevelBody builds a /v1/plan/multilevel body for the i-th
// synthetic two-level configuration, one cache key per i.
func multilevelBody(i int) string {
	return fmt.Sprintf(
		`{"params":{"Levels":[{"Ckpt":15,"Rec":15,"Share":0.2},{"Ckpt":%d,"Rec":300,"Share":0.8}],`+
			`"GuarVer":15,"PartVer":0.15,"Recall":0.8,"Rates":{"FailStop":1e-6,"Silent":3e-6}}}`,
		300+i)
}

// route is a plan route whose cold plans pass the admission gate, with
// the body of its i-th synthetic configuration.
type route struct {
	name, path string
	body       func(i int) string
}

func (rt route) request(i int) *http.Request {
	req := httptest.NewRequest("POST", rt.path, strings.NewReader(rt.body(i)))
	req.Header.Set("Content-Type", "application/json")
	return req
}

// gatedRoutes are the two routes a shed or too-tight plan degrades on.
var gatedRoutes = []route{
	{"exact", "/v1/plan/exact", planBody},
	{"multilevel", "/v1/plan/multilevel", multilevelBody},
}

func exactRequest(i int) *http.Request { return gatedRoutes[0].request(i) }

// metricsSnapshot fetches and decodes GET /metrics.
func metricsSnapshot(t *testing.T, h http.Handler) service.Snapshot {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics returned %d", rec.Code)
	}
	var snap service.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("decode /metrics: %v", err)
	}
	return snap
}

// TestOverloadInvariants is the core chaos scenario: planner slowed
// far beyond its natural latency, closed-loop load at several times
// the worker+queue capacity, all requests for distinct (cold) keys.
// Invariants:
//
//   - every request resolves to 200, 429 or 503 — nothing hangs, no
//     5xx surprises;
//   - some requests are shed (the load really exceeded capacity) and
//     some succeed (shedding is not total collapse);
//   - the queue-depth high-water mark never exceeds the configured
//     bound;
//   - after the drive drains, goroutines return to baseline (no leaked
//     flights, workers or waiters);
//   - the service recovers: a post-overload cold request succeeds.
func TestOverloadInvariants(t *testing.T) {
	const workers, queue = 2, 4
	inj := &Injector{PlannerDelay: 20 * time.Millisecond, PlannerJitter: 5 * time.Millisecond, Seed: 1}
	svc := service.New(inj.Apply(service.Config{ColdWorkers: workers, ColdQueue: queue}))
	h := svc.Handler()

	baseline := runtime.NumGoroutine()
	rep := Drive(h, Options{
		Clients:    4 * (workers + queue), // 4x total capacity
		Requests:   96,
		NewRequest: exactRequest,
	})

	counts := rep.StatusCounts()
	for status := range counts {
		if status != http.StatusOK && status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
			t.Errorf("unexpected status %d (%d requests)", status, counts[status])
		}
	}
	if counts[http.StatusOK] == 0 {
		t.Error("no request succeeded under overload")
	}
	if counts[http.StatusTooManyRequests] == 0 {
		t.Error("no request was shed at 4x capacity")
	}
	for i := range rep.Results {
		r := &rep.Results[i]
		if r.Status == http.StatusTooManyRequests {
			if r.Outcome != "shed" {
				t.Errorf("request %d: 429 outcome = %q, want shed", i, r.Outcome)
			}
			if r.RetryAfter < 1 || r.RetryAfter > 60 {
				t.Errorf("request %d: Retry-After = %d, want within [1, 60]", i, r.RetryAfter)
			}
		}
	}

	snap := metricsSnapshot(t, h)
	if snap.ColdQueueMax > queue {
		t.Errorf("queue high-water %d exceeds bound %d", snap.ColdQueueMax, queue)
	}
	if snap.Shed == 0 || snap.Admitted == 0 {
		t.Errorf("metrics: admitted=%d shed=%d, want both positive", snap.Admitted, snap.Shed)
	}
	if snap.Shed+snap.Admitted < int64(len(rep.Results)) {
		// Coalescing can make admitted < requests, but every request
		// either hit the cache, was admitted, or was shed; with unique
		// keys admitted+shed covers all of them.
		t.Errorf("admitted+shed = %d, want >= %d", snap.Shed+snap.Admitted, len(rep.Results))
	}

	if n := WaitGoroutines(baseline, 5*time.Second); n > baseline {
		t.Errorf("goroutines did not drain: %d, baseline %d", n, baseline)
	}
	if snap := metricsSnapshot(t, h); snap.ColdQueueDepth != 0 {
		t.Errorf("queue depth %d after drain, want 0", snap.ColdQueueDepth)
	}

	// Monotone shed -> recover: with the overload gone, a fresh cold
	// request must be admitted and succeed.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, exactRequest(1000))
	if rec.Code != http.StatusOK {
		t.Errorf("post-overload request returned %d, want 200", rec.Code)
	}
}

// TestHitLatencyBoundedUnderOverload: cache hits bypass the gate, so a
// warmed key stays fast even while the planner is drowning in slowed
// cold plans.
func TestHitLatencyBoundedUnderOverload(t *testing.T) {
	inj := &Injector{PlannerDelay: 20 * time.Millisecond, Seed: 2}
	svc := service.New(inj.Apply(service.Config{ColdWorkers: 1, ColdQueue: 2}))
	h := svc.Handler()

	// Warm one key (slowly — it pays the injected delay once).
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, exactRequest(0))
	if rec.Code != http.StatusOK {
		t.Fatalf("warming request returned %d", rec.Code)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		Drive(h, Options{Clients: 8, Requests: 48, NewRequest: func(i int) *http.Request {
			return exactRequest(i + 1) // all cold
		}})
	}()
	rep := Drive(h, Options{Clients: 2, Requests: 200, NewRequest: func(i int) *http.Request {
		return exactRequest(0) // all hits
	}})
	<-done

	for i := range rep.Results {
		if rep.Results[i].Status != http.StatusOK {
			t.Fatalf("hit request %d returned %d", i, rep.Results[i].Status)
		}
	}
	// The hit path is sub-microsecond in steady state; the bound is
	// generous because CI schedulers stall, but a hit that waits on the
	// planner queue would take >= 20ms and trip it.
	if p99 := rep.LatencyQuantile(0.99, nil); p99 >= 15*time.Millisecond {
		t.Errorf("hit p99 = %v under overload, want < 15ms", p99)
	}
}

// TestDegradedByteStable: in degraded mode, shed requests on either
// gated route serve the first-order fallback with "degraded":true, and
// repeated degraded responses for one configuration are
// byte-identical.
func TestDegradedByteStable(t *testing.T) {
	for _, rt := range gatedRoutes {
		t.Run(rt.name, func(t *testing.T) { testDegradedByteStable(t, rt) })
	}
}

func testDegradedByteStable(t *testing.T, rt route) {
	inj := &Injector{PlannerDelay: 50 * time.Millisecond, Seed: 3}
	svc := service.New(inj.Apply(service.Config{ColdWorkers: 1, ColdQueue: 1, Degraded: true}))
	h := svc.Handler()

	// Saturate the single worker and the one-deep queue with two slow
	// cold plans, then request a third configuration repeatedly: the
	// gate sheds it, degraded mode answers it.
	for i := 0; i < 2; i++ {
		go func(i int) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, rt.request(100+i))
		}(i)
	}
	waitSaturated(t, h)

	var bodies [][]byte
	for try := 0; try < 5; try++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, rt.request(0))
		if rec.Code != http.StatusOK {
			t.Fatalf("degraded request returned %d: %s", rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get(service.OutcomeHeader); got != "degraded" {
			t.Fatalf("outcome header = %q, want degraded", got)
		}
		bodies = append(bodies, rec.Body.Bytes())
	}
	for i, b := range bodies[1:] {
		if !bytes.Equal(b, bodies[0]) {
			t.Errorf("degraded response %d differs: %s vs %s", i+1, b, bodies[0])
		}
	}
	var resp struct {
		Degraded      bool
		DegradedDelta float64
	}
	if err := json.Unmarshal(bodies[0], &resp); err != nil {
		t.Fatalf("decode degraded response: %v", err)
	}
	if !resp.Degraded {
		t.Error(`degraded response lacks "degraded":true`)
	}
	if resp.DegradedDelta < 0 {
		t.Errorf("degradedDelta = %g, want >= 0 (first-order underestimates)", resp.DegradedDelta)
	}
	if snap := metricsSnapshot(t, h); snap.Degraded < 5 {
		t.Errorf("degraded counter = %d, want >= 5", snap.Degraded)
	}

	// Degraded responses are never cached: once the overload clears,
	// the same configuration computes the healthy plan, byte-identical
	// to a fresh service's.
	WaitGoroutines(runtime.NumGoroutine(), 2*time.Second)
	time.Sleep(120 * time.Millisecond) // let the two slow plans finish
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, rt.request(0))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-overload request returned %d", rec.Code)
	}
	healthy := httptest.NewRecorder()
	service.New(service.Config{}).Handler().ServeHTTP(healthy, rt.request(0))
	if !bytes.Equal(rec.Body.Bytes(), healthy.Body.Bytes()) {
		t.Errorf("post-overload response %s, want the healthy plan %s (degraded body cached?)", rec.Body, healthy.Body)
	}
}

// waitSaturated waits until a cold plan waits in the gate's queue,
// which a plan joins only once every worker slot is taken.
func waitSaturated(t *testing.T, h http.Handler) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); metricsSnapshot(t, h).ColdQueueDepth == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no cold plan queued within 5 s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestInjectedErrorsNotCached: a forced cold-plan failure surfaces as
// an error response, and the failure is not cached — the same request
// succeeds once the fault is disarmed.
func TestInjectedErrorsNotCached(t *testing.T) {
	inj := &Injector{Seed: 4}
	inj.SetFailEvery(1) // every cold plan fails
	svc := service.New(inj.Apply(service.Config{ColdWorkers: 2, ColdQueue: 2}))
	h := svc.Handler()

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, exactRequest(0))
	if rec.Code == http.StatusOK {
		t.Fatalf("injected fault did not fail the request (status %d)", rec.Code)
	}
	inj.SetFailEvery(0)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, exactRequest(0))
	if rec.Code != http.StatusOK {
		t.Fatalf("request after disarming returned %d, want 200 (error was cached?)", rec.Code)
	}
}

// TestRetryAfterClampedUnderClockSkew: a wildly scaled and skewed
// service clock corrupts the cold-plan latency observations, but the
// Retry-After advice stays within [1, 60] seconds. Sequential cold
// plans warm the estimate first, so the burst's sheds read the skewed
// clock. Each plan then reads as ~1000 s, which the estimate caps at
// the histogram's 10 s top bound; on one worker the advice is
// 10 s × (depth+1), past 60 s once more than five plans queue, so a
// queue of 8 makes the clamp fire.
func TestRetryAfterClampedUnderClockSkew(t *testing.T) {
	inj := &Injector{
		PlannerDelay: 10 * time.Millisecond,
		ClockSkew:    -3 * time.Hour,
		ClockScale:   1e5, // 10ms of real delay reads as ~1000s
		Seed:         5,
	}
	svc := service.New(inj.Apply(service.Config{ColdWorkers: 1, ColdQueue: 8}))
	h := svc.Handler()
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, exactRequest(1000+i))
		if rec.Code != http.StatusOK {
			t.Fatalf("warming plan %d returned %d", i, rec.Code)
		}
	}

	rep := Drive(h, Options{Clients: 24, Requests: 96, NewRequest: exactRequest})
	shed, clamped := 0, 0
	for i := range rep.Results {
		r := &rep.Results[i]
		if r.Status != http.StatusTooManyRequests {
			continue
		}
		shed++
		if r.RetryAfter < 1 || r.RetryAfter > 60 {
			t.Errorf("request %d: Retry-After = %d under clock chaos, want within [1, 60]", i, r.RetryAfter)
		}
		if r.RetryAfter == 60 {
			clamped++
		}
	}
	if shed == 0 {
		t.Fatal("no request was shed; the clamp was never exercised")
	}
	if clamped == 0 {
		t.Errorf("none of %d shed responses carried Retry-After: 60; the skewed estimate never reached the clamp", shed)
	}
}

// TestTooTightDegrades: in degraded mode, a request on either gated
// route whose budget is below the cold-plan p90 gets the first-order
// answer at once, without taking a worker slot. The p90 counts the
// injected planner latency, as the cold_compute span and the client
// do.
func TestTooTightDegrades(t *testing.T) {
	for _, rt := range gatedRoutes {
		t.Run(rt.name, func(t *testing.T) { testTooTightDegrades(t, rt) })
	}
}

func testTooTightDegrades(t *testing.T, rt route) {
	inj := &Injector{PlannerDelay: 50 * time.Millisecond, Seed: 13}
	svc := service.New(inj.Apply(service.Config{ColdWorkers: 1, ColdQueue: 1, Degraded: true}))
	h := svc.Handler()
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, rt.request(100+i))
		if rec.Code != http.StatusOK {
			t.Fatalf("warming plan %d returned %d", i, rec.Code)
		}
	}
	before := metricsSnapshot(t, h)
	if before.ColdPlanP90Ns < 50e6 {
		t.Errorf("coldPlanP90Ns = %v after three 50 ms plans, want at least 50 ms", before.ColdPlanP90Ns)
	}

	req := rt.request(0)
	req.Header.Set(service.TimeoutHeader, "10ms")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("10 ms-budget request returned %d, want a degraded 200; body %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(service.OutcomeHeader); got != "degraded" {
		t.Errorf("outcome header = %q, want degraded", got)
	}
	after := metricsSnapshot(t, h)
	if after.Admitted != before.Admitted {
		t.Errorf("admitted %d -> %d: the too-tight request took a worker slot", before.Admitted, after.Admitted)
	}
	if after.DeadlineExceeded != 0 || after.Degraded != 1 {
		t.Errorf("deadlineExceeded = %d, degraded = %d; want 0 and 1", after.DeadlineExceeded, after.Degraded)
	}
}

// TestDeadlineExceeded: a budget far below the injected planner
// latency yields 503 with the deadline outcome, and the abandoned
// computation does not leak.
func TestDeadlineExceeded(t *testing.T) {
	inj := &Injector{PlannerDelay: 50 * time.Millisecond, Seed: 6}
	svc := service.New(inj.Apply(service.Config{ColdWorkers: 2, ColdQueue: 2}))
	h := svc.Handler()
	baseline := runtime.NumGoroutine()

	req := exactRequest(0)
	req.Header.Set(service.TimeoutHeader, "5ms")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(service.OutcomeHeader); got != "deadline-exceeded" {
		t.Errorf("outcome header = %q, want deadline-exceeded", got)
	}
	if !strings.Contains(rec.Body.String(), "deadline") {
		t.Errorf("body %q does not mention the deadline", rec.Body.String())
	}
	if snap := metricsSnapshot(t, h); snap.DeadlineExceeded == 0 {
		t.Error("deadlineExceeded counter not incremented")
	}
	if n := WaitGoroutines(baseline, 5*time.Second); n > baseline {
		t.Errorf("abandoned flight leaked goroutines: %d, baseline %d", n, baseline)
	}

	// An invalid budget is a client error, not a crash.
	req = exactRequest(1)
	req.Header.Set(service.TimeoutHeader, "soon")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad budget header: status = %d, want 400", rec.Code)
	}
}

// traceByID finds one retained trace record, or fails the test.
func traceByID(t *testing.T, svc *service.Service, id string) obs.Record {
	t.Helper()
	for _, rec := range svc.Tracer().Traces() {
		if rec.ID == id {
			return rec
		}
	}
	t.Fatalf("no trace %q retained", id)
	return obs.Record{}
}

// spanOutcome returns the outcome of the first span of the given stage,
// or "" when the trace has none.
func spanOutcome(rec obs.Record, stage string) string {
	for _, sp := range rec.Spans {
		if sp.Stage == stage {
			return sp.Outcome
		}
	}
	return ""
}

// TestShedTraceOutcomes: under overload with every request sampled, a
// shed request's trace tells the story end to end — the record carries
// the 429 and the shed outcome, and its gate_wait span ended "shed".
func TestShedTraceOutcomes(t *testing.T) {
	const workers, queue = 2, 4
	inj := &Injector{PlannerDelay: 20 * time.Millisecond, PlannerJitter: 5 * time.Millisecond, Seed: 11}
	svc := service.New(inj.Apply(service.Config{
		ColdWorkers: workers, ColdQueue: queue,
		Tracer: obs.New(obs.Config{SampleEvery: 1, Ring: 256}),
	}))
	rep := Drive(svc.Handler(), Options{
		Clients:    4 * (workers + queue),
		Requests:   96,
		NewRequest: exactRequest, // distinct keys: every request leads its own flight
	})

	shed := 0
	for i := range rep.Results {
		r := &rep.Results[i]
		if r.TraceID == "" {
			t.Fatalf("request %d not sampled at SampleEvery=1", i)
		}
		if r.Status != http.StatusTooManyRequests {
			continue
		}
		shed++
		rec := traceByID(t, svc, r.TraceID)
		if rec.Status != http.StatusTooManyRequests || rec.Outcome != "shed" {
			t.Errorf("shed trace %s: status=%d outcome=%q, want 429/shed", rec.ID, rec.Status, rec.Outcome)
		}
		if got := spanOutcome(rec, "gate_wait"); got != "shed" {
			t.Errorf("shed trace %s: gate_wait span outcome %q, want shed; spans %+v", rec.ID, got, rec.Spans)
		}
	}
	if shed == 0 {
		t.Fatal("no request was shed; the scenario exercised nothing")
	}
}

// TestDegradedTraceOutcomes: a degraded-mode answer's trace records the
// overload shape — the gate shed the cold plan (gate_wait "shed") and
// the first-order fallback computed the answer (cold_compute
// "degraded") — while the request still returned 200.
func TestDegradedTraceOutcomes(t *testing.T) {
	inj := &Injector{PlannerDelay: 50 * time.Millisecond, Seed: 12}
	svc := service.New(inj.Apply(service.Config{
		ColdWorkers: 1, ColdQueue: 1, Degraded: true,
		Tracer: obs.New(obs.Config{SampleEvery: 1, Ring: 64}),
	}))
	h := svc.Handler()

	for i := 0; i < 2; i++ { // saturate the worker slot and the queue
		go func(i int) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, exactRequest(100+i))
		}(i)
	}
	waitSaturated(t, h)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, exactRequest(0))
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded request returned %d: %s", rec.Code, rec.Body.String())
	}
	id := rec.Header().Get(obs.TraceHeader)
	if id == "" {
		t.Fatal("degraded response carries no trace ID at SampleEvery=1")
	}
	trace := traceByID(t, svc, id)
	if trace.Status != http.StatusOK || trace.Outcome != "degraded" {
		t.Errorf("trace status=%d outcome=%q, want 200/degraded", trace.Status, trace.Outcome)
	}
	if got := spanOutcome(trace, "gate_wait"); got != "shed" {
		t.Errorf("gate_wait span outcome %q, want shed; spans %+v", got, trace.Spans)
	}
	if got := spanOutcome(trace, "cold_compute"); got != "degraded" {
		t.Errorf("cold_compute span outcome %q, want degraded; spans %+v", got, trace.Spans)
	}
	WaitGoroutines(runtime.NumGoroutine(), 2*time.Second)
}

// TestJitterDeterministic pins the injector's jitter stream: same
// seed, same sequence.
func TestJitterDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		a := splitmix64(seed)
		b := splitmix64(seed)
		if a != b {
			t.Fatalf("splitmix64(%d) unstable: %d vs %d", seed, a, b)
		}
	}
	if splitmix64(1) == splitmix64(2) {
		t.Error("distinct seeds collide")
	}
}
