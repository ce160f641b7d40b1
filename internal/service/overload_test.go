package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"respat/internal/core"
	"respat/internal/multilevel"
	"respat/internal/platform"
)

// testConfig returns a distinct planning configuration per i, so tests
// can mint arbitrary numbers of cold keys.
func testConfig(i int) (core.Costs, core.Rates) {
	return core.Costs{DiskCkpt: float64(60 + i), DiskRec: 30, Recall: 1},
		core.Rates{FailStop: 1e-7}
}

// TestGateBoundStrict: the wait queue never admits more than its
// capacity — the acquire after workers+queue are held is shed, and a
// release lets exactly one more through.
func TestGateBoundStrict(t *testing.T) {
	const workers, queue = 2, 3
	g := newGate(workers, queue)
	ctx := context.Background()

	// Fill the worker slots.
	for i := 0; i < workers; i++ {
		if err := g.acquire(ctx); err != nil {
			t.Fatalf("slot %d: %v", i, err)
		}
	}
	// Fill the wait queue with blocked acquirers.
	var wg sync.WaitGroup
	errs := make(chan error, queue)
	for i := 0; i < queue; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- g.acquire(ctx)
		}()
	}
	waitFor(t, func() bool { return g.depth() == queue })

	// Queue full: the next acquire is shed immediately.
	if err := g.acquire(ctx); !errors.Is(err, ErrShed) {
		t.Fatalf("acquire over capacity = %v, want ErrShed", err)
	}
	if g.maxDepth() > queue {
		t.Fatalf("high-water %d exceeds bound %d", g.maxDepth(), queue)
	}

	// Releasing drains the queue: each release frees one slot for one
	// queued waiter, so queue-many releases let every waiter through.
	for i := 0; i < queue; i++ {
		g.release()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("queued acquire: %v", err)
		}
	}
}

// TestGateQueuedAcquireHonoursContext: a queued caller whose context
// expires leaves the queue promptly instead of occupying it.
func TestGateQueuedAcquireHonoursContext(t *testing.T) {
	g := newGate(1, 4)
	if err := g.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := g.acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued acquire = %v, want DeadlineExceeded", err)
	}
	if g.depth() != 0 {
		t.Fatalf("queue depth %d after abandoned acquire, want 0", g.depth())
	}
	g.release()
}

// TestGateEstimateFollowsRecentPlans: the cold-plan p90 follows recent
// plans. 300 plans at 50 ms after 10,000 at 1 ms are 2.9% of all of
// them, too few to move a p90 over every plan since start, but most of
// the last few hundred.
func TestGateEstimateFollowsRecentPlans(t *testing.T) {
	g := newGate(1, 1)
	for i := 0; i < 10_000; i++ {
		g.observe(time.Millisecond)
	}
	for i := 0; i < 300; i++ {
		g.observe(50 * time.Millisecond)
	}
	if est := g.estimate(); est < 0.025 {
		t.Errorf("p90 after a shift to 50 ms plans = %v s, want >= 0.025", est)
	}
}

// TestGetOrComputeTimerDeadline: a waiter whose budget expires
// mid-computation abandons the flight instead of riding it to
// completion. The compute blocks until the test releases it, which the
// test does only after getOrCompute has returned, so the check is
// causal, not a wall-clock bound: the waiter came back while the
// flight still ran, and, as the last waiter out, cancelled the
// flight's context. Released, the flight finishes and caches its
// result. A waiter that rode the flight would hold getOrCompute until
// the compute's one-minute fallback, then return its result instead
// of DeadlineExceeded.
func TestGetOrComputeTimerDeadline(t *testing.T) {
	var m Metrics
	c := newCache(2, 16, &m)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	release := make(chan struct{})
	finished := make(chan error, 1) // the flight context's error once the compute ends
	_, err := c.getOrCompute(ctx, testKey(7), func(fctx context.Context) ([]byte, error) {
		select {
		case <-release:
		case <-time.After(time.Minute):
		}
		finished <- fctx.Err()
		return []byte("{}"), nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	select {
	case <-finished:
		t.Fatal("the waiter returned after the flight finished")
	default:
	}
	close(release)
	if ferr := <-finished; !errors.Is(ferr, context.Canceled) {
		t.Fatalf("the abandoned flight's context: %v, want Canceled", ferr)
	}
	resp, err := c.getOrCompute(context.Background(), testKey(7), func(context.Context) ([]byte, error) {
		return nil, errors.New("recomputed: the released flight did not cache its result")
	})
	if err != nil || string(resp) != "{}" {
		t.Fatalf("after the flight finished: %q, %v; want the cached {}", resp, err)
	}
}

// TestLongSearchInterrupted pins deadline enforcement against a real
// CPU-bound search, no injection: a 50ms budget must interrupt a
// multi-second multilevel search within the scheduler's best-effort
// window (see DESIGN.md §2.8), far short of running it to completion.
// Hera at L=3 with λf scaled by 1e-4 stretches the first-order caps to
// a 17,500-candidate box, which takes ~7s to search uncancelled on a
// 2-vCPU VM.
func TestLongSearchInterrupted(t *testing.T) {
	pl, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	p3, err := multilevel.FromPlatform(pl.ScaleRates(1e-4, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, perr := s.PlanMultilevelCtx(ctx, p3)
	elapsed := time.Since(start)
	if !errors.Is(perr, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v (after %v)", perr, elapsed)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v; search not interrupted", elapsed)
	}
}

// TestColdPlansOnOneShardOverlap: the admission gate's ColdWorkers is
// the only limit on concurrent cold plans. With one cache shard and two
// workers, a cold exact plan must not wait for another configuration's
// search on the same shard: the multi-second multilevel search of
// TestLongSearchInterrupted.
func TestColdPlansOnOneShardOverlap(t *testing.T) {
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	p3, err := multilevel.FromPlatform(hera.ScaleRates(1e-4, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Shards: 1, ColdWorkers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	searched := make(chan error, 1)
	go func() {
		_, err := s.PlanMultilevelCtx(ctx, p3)
		searched <- err
	}()
	waitFor(t, func() bool { return s.Metrics().Admitted.Load() == 1 })
	start := time.Now()
	_, err = s.PlanExact(core.PD, hera.Costs, hera.Rates)
	elapsed := time.Since(start)
	cancel()
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > time.Second {
		t.Fatalf("cold exact plan took %v beside a running search, want < 1s", elapsed)
	}
	if err := <-searched; !errors.Is(err, context.Canceled) {
		t.Fatalf("search = %v, want Canceled (it should outlast the exact plan)", err)
	}
}

// TestPlanExactCancelledNotCached: a cancelled exact plan returns the
// context error and leaves nothing behind — the next call computes
// the full search and caches it.
func TestPlanExactCancelledNotCached(t *testing.T) {
	s := New(Config{})
	costs, rates := testConfig(0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.PlanExactCtx(ctx, core.PD, costs, rates); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled PlanExactCtx = %v, want Canceled", err)
	}
	if n := s.cache.len(); n != 0 {
		t.Fatalf("cache holds %d entries after cancelled plan, want 0", n)
	}
	got, err := s.PlanExact(core.PD, costs, rates)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.PlanExact(core.PD, costs, rates)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("post-cancel plan not cached byte-identically")
	}
}

// TestMalformedBodiesRacingCacheFills hammers the handler with an
// interleaving of malformed bodies and valid requests for a small key
// set: the malformed ones all get 400, the valid ones all get 200, and
// nothing panics or deadlocks under -race.
func TestMalformedBodiesRacingCacheFills(t *testing.T) {
	h := New(Config{ColdWorkers: 2, ColdQueue: 64}).Handler()
	bad := []string{
		``,
		`{`,
		`{"kind":"PD"}`,
		`{"kind":"PD","platform":"Hera","costs":{"DiskCkpt":1}}`,
		`{"kind":"nope","platform":"Hera"}`,
		`{"kind":"PD","platform":"Hera"}trailing`,
		`{"kind":"PD","platform":"Hera","unknown":1}`,
	}
	const goroutines = 8
	const iters = 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if i%2 == 0 {
					body := bad[(g+i)%len(bad)]
					w := postJSON(t, h, "/v1/plan/exact", body)
					if w.Code != http.StatusBadRequest {
						t.Errorf("malformed body %q: status %d, want 400", body, w.Code)
					}
					continue
				}
				costs, _ := testConfig(i % 4)
				body := fmt.Sprintf(`{"kind":"PD","costs":{"DiskCkpt":%g,"DiskRec":%g,"Recall":1},"rates":{"FailStop":1e-7}}`,
					costs.DiskCkpt, costs.DiskRec)
				w := postJSON(t, h, "/v1/plan/exact", body)
				if w.Code != http.StatusOK {
					t.Errorf("valid body: status %d: %s", w.Code, w.Body.String())
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDeleteMissingSessionConcurrent: concurrent DELETEs for one
// session leave exactly one 200 and the rest 404 — the session table
// mutation is atomic.
func TestDeleteMissingSessionConcurrent(t *testing.T) {
	h := New(Config{}).Handler()
	if w := postJSON(t, h, "/v1/observe", `{"session":"gone","kind":"PD","platform":"Hera"}`); w.Code != http.StatusOK {
		t.Fatalf("create session: %d", w.Code)
	}
	const deleters = 8
	codes := make([]int, deleters)
	var wg sync.WaitGroup
	for i := 0; i < deleters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodDelete, "/v1/adaptive?session=gone", nil)
			w := httptest.NewRecorder()
			h.ServeHTTP(w, req)
			codes[i] = w.Code
		}(i)
	}
	wg.Wait()
	ok, notFound := 0, 0
	for _, c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusNotFound:
			notFound++
		default:
			t.Errorf("unexpected DELETE status %d", c)
		}
	}
	if ok != 1 || notFound != deleters-1 {
		t.Errorf("deletes resolved as %d ok / %d not-found, want 1 / %d", ok, notFound, deleters-1)
	}
}

// TestMetricsSnapshotRace reads /metrics concurrently with traffic that
// touches every counter the snapshot reads (cache, gate, sessions),
// relying on -race to flag unsynchronised access.
func TestMetricsSnapshotRace(t *testing.T) {
	s := New(Config{ColdWorkers: 2, ColdQueue: 2})
	h := s.Handler()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			costs, _ := testConfig(i % 8)
			body := fmt.Sprintf(`{"kind":"PD","costs":{"DiskCkpt":%g,"DiskRec":30,"Recall":1},"rates":{"FailStop":1e-7}}`, costs.DiskCkpt)
			postJSON(t, h, "/v1/plan/exact", body)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			postJSON(t, h, "/v1/observe",
				fmt.Sprintf(`{"session":"s%d","kind":"PD","platform":"Hera"}`, i%4))
		}
	}()
	for i := 0; i < 50; i++ {
		if w := getPath(t, h, "/metrics"); w.Code != http.StatusOK {
			t.Fatalf("/metrics status %d", w.Code)
		}
	}
	close(stop)
	wg.Wait()
}

// TestTimeoutHeaderParsing covers the budget-resolution edges the
// chaos suite doesn't: clamping, defaults and rejection.
func TestTimeoutHeaderParsing(t *testing.T) {
	req := func(hdr string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader("{}"))
		if hdr != "" {
			r.Header.Set(TimeoutHeader, hdr)
		}
		return r
	}
	if d, err := requestBudget(req(""), 42*time.Second); err != nil || d != 42*time.Second {
		t.Errorf("no header: (%v, %v), want default 42s", d, err)
	}
	if d, err := requestBudget(req("250ms"), 0); err != nil || d != 250*time.Millisecond {
		t.Errorf("250ms: (%v, %v)", d, err)
	}
	if d, err := requestBudget(req("24h"), 0); err != nil || d != maxRequestTimeout {
		t.Errorf("24h: (%v, %v), want clamp to %v", d, err, maxRequestTimeout)
	}
	for _, bad := range []string{"soon", "-1s", "0s"} {
		if _, err := requestBudget(req(bad), 0); err == nil {
			t.Errorf("header %q accepted, want error", bad)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 2s")
		}
		time.Sleep(time.Millisecond)
	}
}
