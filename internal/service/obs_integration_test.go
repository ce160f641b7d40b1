package service

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"respat/internal/core"
	"respat/internal/obs"
	"respat/internal/platform"
	"respat/internal/promlint"
)

// tracedService builds a service that samples every request into a
// trace, the configuration the observability tests drive.
func tracedService(cfg Config) *Service {
	cfg.Tracer = obs.New(obs.Config{SampleEvery: 1, Ring: 64, Seed: 7})
	return New(cfg)
}

// histogramQuantile is Prometheus's histogram_quantile over one
// series' buckets, upper bounds les (+Inf last) with cumulative counts,
// written from the PromQL rule as the reference the JSON quantiles are
// checked against. It returns NaN for an empty series, as PromQL does.
func histogramQuantile(q float64, les, counts []float64) float64 {
	n := len(counts)
	if counts[n-1] == 0 {
		return math.NaN()
	}
	rank := q * counts[n-1]
	b := sort.Search(n-1, func(i int) bool { return counts[i] >= rank })
	if b == n-1 {
		return les[n-2]
	}
	start, count := 0.0, counts[b]
	if b > 0 {
		start = les[b-1]
		count -= counts[b-1]
		rank -= counts[b-1]
	}
	return start + (les[b]-start)*(rank/count)
}

// promHistograms parses the bucket lines of one histogram family per
// value of its first label: upper bounds in seconds and cumulative
// counts, in exposition order.
func promHistograms(t *testing.T, body, family string) (les, counts map[string][]float64) {
	t.Helper()
	les, counts = map[string][]float64{}, map[string][]float64{}
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, family+"_bucket{")
		if !ok {
			continue
		}
		labels, value, _ := strings.Cut(rest, "} ")
		first, le, _ := strings.Cut(labels, `,le="`)
		_, key, _ := strings.Cut(first, `="`)
		key = strings.TrimSuffix(key, `"`)
		bound, err := strconv.ParseFloat(strings.TrimSuffix(le, `"`), 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		c, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("bucket line %q: %v", line, err)
		}
		les[key] = append(les[key], bound)
		counts[key] = append(counts[key], c)
	}
	return les, counts
}

// TestPrometheusExposition drives a mixed workload (hits, misses, a
// client error) and asserts the Prometheus view of it: correct content
// type, a lint-clean exposition, and the counters/histograms the
// workload must have moved. The JSON view must read from the same
// source: each endpoint's p50/p90/p99 is histogram_quantile over its
// respat_endpoint_latency_seconds buckets, and coldPlanP90Ns is
// respat_cold_plan_p90_seconds.
func TestPrometheusExposition(t *testing.T) {
	svc := tracedService(Config{})
	h := svc.Handler()

	for i := 0; i < 3; i++ { // one miss, two hits
		rec := do(h, http.MethodPost, "/v1/plan", `{"kind":"PD","platform":"Hera"}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("plan request returned %d: %s", rec.Code, rec.Body.String())
		}
	}
	if rec := do(h, http.MethodPost, "/v1/plan/exact", `{"kind":"PDV","platform":"Atlas"}`); rec.Code != http.StatusOK {
		t.Fatalf("exact request returned %d: %s", rec.Code, rec.Body.String())
	}
	if rec := do(h, http.MethodPost, "/v1/plan", `{not json`); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed request returned %d, want 400", rec.Code)
	}

	rec := do(h, http.MethodGet, "/metrics?format=prometheus", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("prometheus scrape returned %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("content type %q, want %q", ct, obs.PromContentType)
	}
	body := rec.Body.String()
	for _, errLint := range promlint.Lint(rec.Body.Bytes()) {
		t.Errorf("lint: %v", errLint)
	}
	for _, want := range []string{
		"respat_build_info{",
		"respat_cache_hits_total 2",
		"respat_cache_misses_total 2",
		`respat_endpoint_requests_total{endpoint="plan"} 4`,
		`respat_endpoint_errors_total{endpoint="plan",class="4xx"} 1`,
		`respat_endpoint_errors_total{endpoint="plan",class="5xx"} 0`,
		`respat_endpoint_latency_seconds_bucket{endpoint="plan_exact",le="+Inf"} 1`,
		"respat_traces_sampled_total 5",
		`respat_stage_latency_seconds_bucket{stage="cache_lookup",le="+Inf"}`,
		"respat_goroutines ",
		"respat_uptime_seconds ",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition lacks %q", want)
		}
	}

	// The JSON view stays the default and carries the 4xx/5xx split.
	rec = do(h, http.MethodGet, "/metrics", "")
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("decode JSON /metrics: %v", err)
	}
	ep := snap.Endpoints["plan"]
	if ep.Requests != 4 || ep.ClientErrors != 1 || ep.ServerErrors != 0 || ep.Errors != 1 {
		t.Fatalf("plan endpoint snapshot %+v, want 4 requests, 1 client error", ep)
	}

	// One source: the JSON quantiles are the Prometheus histograms'.
	les, counts := promHistograms(t, body, "respat_endpoint_latency_seconds")
	if len(les) != int(epCount) {
		t.Fatalf("parsed %d endpoint histograms, want %d", len(les), epCount)
	}
	for name, e := range snap.Endpoints {
		c := counts[name]
		if float64(e.Latency.Count) != c[len(c)-1] {
			t.Errorf("%s: JSON count %d, +Inf bucket %v", name, e.Latency.Count, c[len(c)-1])
		}
		for _, qv := range []struct {
			q    float64
			json float64
		}{{0.50, e.Latency.P50}, {0.90, e.Latency.P90}, {0.99, e.Latency.P99}} {
			want := histogramQuantile(qv.q, les[name], c) * 1e9
			if math.IsNaN(want) {
				want = 0 // an empty histogram reads 0 in JSON
			}
			if math.Abs(qv.json-want) > 1e-9*want {
				t.Errorf("%s: JSON p%g = %v ns, histogram_quantile = %v ns", name, 100*qv.q, qv.json, want)
			}
		}
	}
	if snap.Endpoints["plan_exact"].Latency.P50 <= 0 {
		t.Error("plan_exact p50 is not positive after a cold plan")
	}
	var p90 float64
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, "respat_cold_plan_p90_seconds "); ok {
			var err error
			if p90, err = strconv.ParseFloat(v, 64); err != nil {
				t.Fatal(err)
			}
		}
	}
	if p90 <= 0 || snap.ColdPlanP90Ns != p90*1e9 {
		t.Errorf("coldPlanP90Ns = %v, respat_cold_plan_p90_seconds × 1e9 = %v; want equal and positive", snap.ColdPlanP90Ns, p90*1e9)
	}
}

// TestErrorBodyCarriesTraceID: a sampled request that fails returns its
// trace ID both in the response header and in the JSON error envelope,
// so a client error report joins against /debug/traces.
func TestErrorBodyCarriesTraceID(t *testing.T) {
	svc := tracedService(Config{})
	h := svc.Handler()
	const forced = "00000000deadbeef"

	req := httptest.NewRequest(http.MethodPost, "/v1/plan", strings.NewReader(`{not json`))
	req.Header.Set(obs.TraceHeader, forced)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
	if got := rec.Header().Get(obs.TraceHeader); got != forced {
		t.Errorf("response trace header %q, want %q", got, forced)
	}
	var body struct {
		Error   string `json:"error"`
		TraceID string `json:"traceId"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.TraceID != forced {
		t.Errorf("error body traceId %q, want %q", body.TraceID, forced)
	}
	recs := svc.Tracer().Traces()
	if len(recs) != 1 || recs[0].ID != forced || recs[0].Status != http.StatusBadRequest {
		t.Fatalf("trace ring %+v, want one 400 record under the forced ID", recs)
	}
}

// TestClusterStitchedTrace is the distributed-tracing acceptance
// scenario: three in-process replicas, one forwarded request, one
// stitched trace. The entry replica's half carries a peer_forward hop
// span naming the owner and storing its Server-Timing; the owner's
// half shares the trace ID and records who forwarded. Each half looks
// the key up once: one cache_lookup span, though the owner's request
// is a miss that goes on to plan. The stitched trace is retrievable
// from the entry replica's /debug/traces.
func TestClusterStitchedTrace(t *testing.T) {
	net := newFakeNet()
	members := []Member{
		{Name: "r0", URL: "http://r0"},
		{Name: "r1", URL: "http://r1"},
		{Name: "r2", URL: "http://r2"},
	}
	services := make([]*Service, len(members))
	handlers := make([]http.Handler, len(members))
	byName := make(map[string]*Service, len(members))
	for i := range members {
		services[i] = tracedService(Config{})
		if err := services[i].EnableCluster(ClusterConfig{
			Self: members[i].Name, Members: members,
			Seed: 9, Transport: net,
		}); err != nil {
			t.Fatal(err)
		}
		handlers[i] = services[i].Handler()
		byName[members[i].Name] = services[i]
		net.mu.Lock()
		net.handlers[members[i].Name] = handlers[i]
		net.mu.Unlock()
	}

	// Find a request r0 does not own: drive the spread with distinct
	// forced trace IDs until the forward log grows.
	var forcedID string
	for i, rq := range clusterRequests() {
		id := fmt.Sprintf("%016x", i+1)
		req := httptest.NewRequest(http.MethodPost, rq.path, strings.NewReader(rq.body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(obs.TraceHeader, id)
		before := len(net.forwardLog())
		rec := httptest.NewRecorder()
		handlers[0].ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s returned %d: %s", rq.path, rec.Code, rec.Body.String())
		}
		if len(net.forwardLog()) > before {
			forcedID = id
			if got := rec.Header().Get(obs.TraceHeader); got != id {
				t.Fatalf("forwarded response trace header %q, want %q", got, id)
			}
			break
		}
	}
	if forcedID == "" {
		t.Fatal("no request was forwarded; the key space did not reach a peer")
	}

	// Entry half: the record under the forced ID has a peer_forward hop
	// span naming the owner and storing the owner's Server-Timing.
	entry := findTrace(t, services[0].Tracer().Traces(), forcedID)
	var hop *obs.Span
	for i := range entry.Spans {
		if entry.Spans[i].Stage == obs.StagePeerForward.String() {
			hop = &entry.Spans[i]
		}
	}
	if hop == nil {
		t.Fatalf("entry trace has no peer_forward span: %+v", entry.Spans)
	}
	if hop.Outcome != "ok" || hop.Peer == "" || hop.Peer == "r0" {
		t.Fatalf("hop span %+v, want outcome ok and a peer name != r0", hop)
	}
	if !strings.Contains(hop.Remote, "app;dur=") {
		t.Fatalf("hop span Remote %q does not carry the peer's Server-Timing", hop.Remote)
	}

	// Owner half: same trace ID, forwarded-from r0, and no further hop.
	owner := byName[hop.Peer]
	if owner == nil {
		t.Fatalf("hop names unknown peer %q", hop.Peer)
	}
	remote := findTrace(t, owner.Tracer().Traces(), forcedID)
	if remote.ForwardedFrom != "r0" {
		t.Fatalf("owner trace ForwardedFrom %q, want r0", remote.ForwardedFrom)
	}
	for _, sp := range remote.Spans {
		if sp.Stage == obs.StagePeerForward.String() {
			t.Fatalf("owner trace has a forward hop of its own: %+v", sp)
		}
	}
	for _, half := range []obs.Record{entry, remote} {
		lookups := 0
		for _, sp := range half.Spans {
			if sp.Stage == obs.StageCacheLookup.String() {
				lookups++
			}
		}
		if lookups != 1 {
			t.Errorf("trace half forwarded from %q has %d cache_lookup spans, want 1: %+v",
				half.ForwardedFrom, lookups, half.Spans)
		}
	}

	// The stitched trace is served by the entry replica's /debug/traces.
	rec := do(handlers[0], http.MethodGet, "/debug/traces", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/traces returned %d", rec.Code)
	}
	var dumped []obs.Record
	if err := json.Unmarshal(rec.Body.Bytes(), &dumped); err != nil {
		t.Fatal(err)
	}
	findTrace(t, dumped, forcedID)
}

// findTrace returns the record with the given ID or fails the test.
func findTrace(t *testing.T, recs []obs.Record, id string) obs.Record {
	t.Helper()
	for _, r := range recs {
		if r.ID == id {
			return r
		}
	}
	t.Fatalf("no trace %q among %d records", id, len(recs))
	return obs.Record{}
}

// TestConcurrentTracesAndScrapes races trace recording against
// /debug/traces and Prometheus readers (meaningful under -race): every
// response stays well-formed and the final exposition still lints.
func TestConcurrentTracesAndScrapes(t *testing.T) {
	svc := tracedService(Config{})
	h := svc.Handler()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				body := fmt.Sprintf(`{"kind":"PD","costs":{"DiskCkpt":%d,"DiskRec":30,"Recall":1},"rates":{"FailStop":1e-7}}`, 60+w*50+i)
				if rec := do(h, http.MethodPost, "/v1/plan", body); rec.Code != http.StatusOK {
					t.Errorf("plan returned %d", rec.Code)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if rec := do(h, http.MethodGet, "/debug/traces", ""); rec.Code != http.StatusOK {
					t.Errorf("/debug/traces returned %d", rec.Code)
					return
				}
				if rec := do(h, http.MethodGet, "/metrics?format=prometheus", ""); rec.Code != http.StatusOK {
					t.Errorf("prometheus scrape returned %d", rec.Code)
					return
				}
			}
		}()
	}
	wg.Wait()
	if errs := promlint.Lint(do(h, http.MethodGet, "/metrics?format=prometheus", "").Body.Bytes()); len(errs) > 0 {
		t.Fatalf("post-race exposition does not lint: %v", errs)
	}
	if svc.Tracer().Sampled() != 200 {
		t.Fatalf("sampled %d traces, want 200", svc.Tracer().Sampled())
	}
}

// TestTracedHotPathZeroAlloc is the CI gate on the tracing overhead
// contract: with the tracer compiled in and sampling enabled, an
// unsampled cache hit — the overwhelmingly common request — still
// allocates nothing. It runs the loop of BenchmarkServicePlanHot,
// whose allocs/op it therefore holds at 0.
func TestTracedHotPathZeroAlloc(t *testing.T) {
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	// Sampling enabled but astronomically sparse: every benchmarked
	// request takes the unsampled branch, as in production.
	svc := New(Config{Tracer: obs.New(obs.Config{SampleEvery: 1 << 30})})
	if _, err := svc.PlanExact(core.PDMV, hera.Costs, hera.Rates); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		tr := svc.Tracer().Start("plan_exact", "", "")
		ctx := obs.NewContext(context.Background(), tr)
		if _, err := svc.PlanExactCtx(ctx, core.PDMV, hera.Costs, hera.Rates); err != nil {
			t.Fatal(err)
		}
		tr.Finish(http.StatusOK, "hit")
	})
	if allocs != 0 {
		t.Fatalf("traced cache hit allocates: %v allocs/op, want 0", allocs)
	}
}
