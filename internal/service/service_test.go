package service

import (
	"bytes"
	"encoding/json"
	"math"
	"sync"
	"testing"

	"respat/internal/analytic"
	"respat/internal/core"
	"respat/internal/optimize"
	"respat/internal/platform"
)

// TestCachedByteIdenticalToCold is the §3 memo contract: a response
// served from the cache is byte-identical to what a cold service
// computes for the same request, across every (platform, family) cell
// and both planning modes.
func TestCachedByteIdenticalToCold(t *testing.T) {
	warm := New(Config{})
	for _, p := range platform.Table2() {
		for _, k := range core.Kinds() {
			cold1, err := warm.Plan(k, p.Costs, p.Rates)
			if err != nil {
				t.Fatal(err)
			}
			hot, err := warm.Plan(k, p.Costs, p.Rates)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := New(Config{}).Plan(k, p.Costs, p.Rates)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cold1, hot) || !bytes.Equal(hot, fresh) {
				t.Fatalf("%s/%s: cached plan bytes differ from cold computation", p.Name, k)
			}
		}
	}
	// Exact plans are slower; spot-check one platform across families.
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range core.Kinds() {
		cold1, err := warm.PlanExact(k, hera.Costs, hera.Rates)
		if err != nil {
			t.Fatal(err)
		}
		hot, err := warm.PlanExact(k, hera.Costs, hera.Rates)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(Config{}).PlanExact(k, hera.Costs, hera.Rates)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cold1, hot) || !bytes.Equal(hot, fresh) {
			t.Fatalf("Hera/%s: cached exact plan bytes differ from cold computation", k)
		}
	}
}

// TestPlanMatchesAnalytic: the served body decodes back to exactly the
// analytic.Optimal solution.
func TestPlanMatchesAnalytic(t *testing.T) {
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{})
	body, err := svc.Plan(core.PDMV, hera.Costs, hera.Rates)
	if err != nil {
		t.Fatal(err)
	}
	var got PlanResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want, err := analytic.Optimal(core.PDMV, hera.Costs, hera.Rates)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != "PDMV" || got.Exact || got.N != want.N || got.M != want.M ||
		got.W != want.W || got.Overhead != want.Overhead {
		t.Fatalf("served %+v, want %+v", got, want)
	}
}

// TestPlanExactMatchesOptimize: the exact endpoint serves the
// optimize.Exact solution.
func TestPlanExactMatchesOptimize(t *testing.T) {
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{})
	body, err := svc.PlanExact(core.PDMV, hera.Costs, hera.Rates)
	if err != nil {
		t.Fatal(err)
	}
	var got PlanResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want, err := optimize.Exact(core.PDMV, hera.Costs, hera.Rates)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Exact || got.N != want.N || got.M != want.M || got.W != want.W || got.Overhead != want.Overhead {
		t.Fatalf("served %+v, want %+v", got, want)
	}
}

// TestEvaluateMatchesDirect: the evaluate path equals a direct
// one-shot analytic.ExactExpectedTime.
func TestEvaluateMatchesDirect(t *testing.T) {
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := analytic.Optimal(core.PDMV, hera.Costs, hera.Rates)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{})
	body, err := svc.Evaluate(plan.Pattern, hera.Costs, hera.Rates)
	if err != nil {
		t.Fatal(err)
	}
	var got EvaluateResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	want, err := analytic.ExactExpectedTime(plan.Pattern, hera.Costs, hera.Rates)
	if err != nil {
		t.Fatal(err)
	}
	if got.ExpectedTime != want {
		t.Fatalf("expectedTime = %v, want %v", got.ExpectedTime, want)
	}
	if wantH := want/plan.Pattern.W - 1; math.Abs(got.Overhead-wantH) > 1e-15 {
		t.Fatalf("overhead = %v, want %v", got.Overhead, wantH)
	}
	// Repeated evaluations stay bit-identical.
	again, err := svc.Evaluate(plan.Pattern, hera.Costs, hera.Rates)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, again) {
		t.Fatal("repeated evaluation differs")
	}
}

// TestServiceHammer is the acceptance-criteria race test: ≥8 goroutines
// hammer one hot key and a scattered key-set concurrently (run under
// -race in CI). It proves (a) no data races, (b) computations per
// unique key == 1 under coalescing (misses == unique keys), and
// (c) responses served hot are byte-identical to a cold service's.
func TestServiceHammer(t *testing.T) {
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Shards: 8, Capacity: 4096})

	const goroutines = 12
	const iters = 200
	const scattered = 48 // distinct scattered configurations

	scatteredCosts := func(i int) core.Costs {
		c := hera.Costs
		c.DiskCkpt = 100 + float64(i)
		return c
	}

	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for i := 0; i < iters; i++ {
				// Hot key: everyone hammers (Hera, PDMV).
				if _, err := svc.Plan(core.PDMV, hera.Costs, hera.Rates); err != nil {
					errc <- err
					return
				}
				// Scattered keys: staggered walk over the key-set.
				if _, err := svc.Plan(core.PD, scatteredCosts((i+g*17)%scattered), hera.Rates); err != nil {
					errc <- err
					return
				}
				// A slower exact-plan key exercises coalescing windows
				// under contention.
				if i%40 == g%40 {
					if _, err := svc.PlanExact(core.PDM, hera.Costs, hera.Rates); err != nil {
						errc <- err
						return
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	m := svc.Metrics()
	uniqueKeys := int64(1 + scattered + 1) // hot + scattered + one exact
	if got := m.Misses.Load(); got != uniqueKeys {
		t.Errorf("misses (= computations) = %d, want %d (one per unique key)", got, uniqueKeys)
	}
	if m.Hits.Load() == 0 {
		t.Error("no cache hits under the hammer")
	}
	// Every request is accounted for exactly once.
	total := m.Hits.Load() + m.Misses.Load() + m.Coalesced.Load()
	if total < goroutines*iters*2 {
		t.Errorf("accounted requests = %d, want >= %d", total, goroutines*iters*2)
	}

	// (c) hot responses == cold responses, for the hot key and every
	// scattered key.
	cold := New(Config{})
	hot, err := svc.Plan(core.PDMV, hera.Costs, hera.Rates)
	if err != nil {
		t.Fatal(err)
	}
	coldB, err := cold.Plan(core.PDMV, hera.Costs, hera.Rates)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(hot, coldB) {
		t.Error("hot PDMV response differs from cold computation")
	}
	for i := 0; i < scattered; i++ {
		hot, err := svc.Plan(core.PD, scatteredCosts(i), hera.Rates)
		if err != nil {
			t.Fatal(err)
		}
		coldB, err := cold.Plan(core.PD, scatteredCosts(i), hera.Rates)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(hot, coldB) {
			t.Errorf("scattered key %d: hot response differs from cold computation", i)
		}
	}
}

// TestInvalidInputsRejected: planner errors surface and are never
// cached.
func TestInvalidInputsRejected(t *testing.T) {
	svc := New(Config{})
	bad := core.Costs{DiskCkpt: -1, Recall: 0.8}
	if _, err := svc.Plan(core.PD, bad, core.Rates{Silent: 1e-6}); err == nil {
		t.Error("negative cost accepted")
	}
	// Out-of-range kinds must be rejected before keying: core.Kind(256)
	// truncates to the same key byte as PD and would alias its entry.
	for _, k := range []core.Kind{-1, 6, 256} {
		if _, err := svc.Plan(k, platformCosts(t), core.Rates{Silent: 1e-6}); err == nil {
			t.Errorf("invalid kind %d accepted by Plan", k)
		}
		if _, err := svc.PlanExact(k, platformCosts(t), core.Rates{Silent: 1e-6}); err == nil {
			t.Errorf("invalid kind %d accepted by PlanExact", k)
		}
	}
	if _, err := svc.Plan(core.PD, platformCosts(t), core.Rates{}); err == nil {
		t.Error("zero rates accepted (no finite optimal pattern exists)")
	}
	if _, err := svc.Evaluate(core.Pattern{}, platformCosts(t), core.Rates{Silent: 1e-6}); err == nil {
		t.Error("invalid pattern accepted")
	}
	if m := svc.Metrics(); m.Hits.Load() != 0 || svc.cache.len() != 0 {
		t.Error("failed requests must not populate the cache")
	}
}

func platformCosts(t *testing.T) core.Costs {
	t.Helper()
	p, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	return p.Costs
}
