package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/textproto"
	"strings"
	"testing"

	"respat/internal/analytic"
	"respat/internal/core"
	"respat/internal/obs"
	"respat/internal/platform"
)

func postJSON(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func getPath(t *testing.T, h http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w
}

func TestPlanEndpoint(t *testing.T) {
	h := New(Config{}).Handler()
	w := postJSON(t, h, "/v1/plan", `{"kind":"PDMV","platform":"Hera"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp PlanResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	hera, _ := platform.ByName("Hera")
	want, err := analytic.Optimal(core.PDMV, hera.Costs, hera.Rates)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Kind != "PDMV" || resp.N != want.N || resp.M != want.M || resp.W != want.W {
		t.Fatalf("resp %+v, want plan %v", resp, want)
	}
}

func TestPlanEndpointExplicitConfig(t *testing.T) {
	h := New(Config{}).Handler()
	body := `{"kind":"PD",
		"costs":{"DiskCkpt":300,"MemCkpt":15.4,"DiskRec":300,"MemRec":15.4,
		         "GuarVer":15.4,"PartVer":0.154,"Recall":0.8},
		"rates":{"FailStop":9.46e-7,"Silent":3.38e-6}}`
	w := postJSON(t, h, "/v1/plan", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	// The explicit config equals Hera's, so the body must be
	// byte-identical to the platform-resolved one (same cache key).
	w2 := postJSON(t, h, "/v1/plan", `{"kind":"PD","platform":"Hera"}`)
	if !bytes.Equal(w.Body.Bytes(), w2.Body.Bytes()) {
		t.Fatalf("explicit config and platform name disagree:\n%s\n%s", w.Body, w2.Body)
	}
}

func TestPlanExactEndpoint(t *testing.T) {
	h := New(Config{}).Handler()
	w := postJSON(t, h, "/v1/plan/exact", `{"kind":"PDMV","platform":"Hera"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var exact PlanResponse
	if err := json.Unmarshal(w.Body.Bytes(), &exact); err != nil {
		t.Fatal(err)
	}
	if !exact.Exact {
		t.Fatal("exact endpoint served a non-exact plan")
	}
	var first PlanResponse
	wf := postJSON(t, h, "/v1/plan", `{"kind":"PDMV","platform":"Hera"}`)
	if err := json.Unmarshal(wf.Body.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	// The exact optimum can only improve on the first-order plan's
	// predicted overhead by a small margin (EXPERIMENTS.md: ≤ 0.02%
	// relative), so the two must be close.
	if exact.Overhead > first.Overhead*1.05 || exact.Overhead < first.Overhead*0.5 {
		t.Fatalf("exact overhead %v implausible vs first-order %v", exact.Overhead, first.Overhead)
	}
}

func TestEvaluateEndpoint(t *testing.T) {
	hera, _ := platform.ByName("Hera")
	plan, err := analytic.Optimal(core.PDMV, hera.Costs, hera.Rates)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := json.Marshal(plan.Pattern)
	if err != nil {
		t.Fatal(err)
	}
	h := New(Config{}).Handler()
	w := postJSON(t, h, "/v1/evaluate",
		fmt.Sprintf(`{"pattern":%s,"platform":"Hera"}`, pat))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp EvaluateResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	want, err := analytic.ExactExpectedTime(plan.Pattern, hera.Costs, hera.Rates)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ExpectedTime != want {
		t.Fatalf("expectedTime = %v, want %v", resp.ExpectedTime, want)
	}
}

func TestBatchEndpoint(t *testing.T) {
	h := New(Config{BatchWorkers: 4}).Handler()
	body := `{"requests":[
		{"op":"plan","kind":"PD","platform":"Hera"},
		{"op":"plan/exact","kind":"PDM","platform":"Atlas"},
		{"op":"plan","kind":"NOPE","platform":"Hera"},
		{"op":"frobnicate"},
		{"op":"plan","kind":"PDMV","platform":"Coastal"}
	]}`
	w := postJSON(t, h, "/v1/batch", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Responses) != 5 {
		t.Fatalf("got %d responses, want 5", len(resp.Responses))
	}
	// Items 0, 1, 4 succeed; 2 and 3 carry error envelopes, in order.
	for _, i := range []int{0, 1, 4} {
		var plan PlanResponse
		if err := json.Unmarshal(resp.Responses[i], &plan); err != nil || plan.N < 1 {
			t.Errorf("item %d: bad plan %s", i, resp.Responses[i])
		}
		if wantExact := i == 1; plan.Exact != wantExact {
			t.Errorf("item %d: exact = %v, want %v", i, plan.Exact, wantExact)
		}
	}
	for _, i := range []int{2, 3} {
		var e errorBody
		if err := json.Unmarshal(resp.Responses[i], &e); err != nil || e.Error == "" {
			t.Errorf("item %d: expected error envelope, got %s", i, resp.Responses[i])
		}
	}
	// Batch items share the plan cache with the single-plan endpoints.
	w2 := postJSON(t, h, "/v1/plan", `{"kind":"PD","platform":"Hera"}`)
	var single PlanResponse
	if err := json.Unmarshal(w2.Body.Bytes(), &single); err != nil {
		t.Fatal(err)
	}
	var fromBatch PlanResponse
	if err := json.Unmarshal(resp.Responses[0], &fromBatch); err != nil {
		t.Fatal(err)
	}
	if single != fromBatch {
		t.Error("batch and single-plan endpoints disagree")
	}
}

func TestBadRequests(t *testing.T) {
	h := New(Config{}).Handler()
	hera, _ := platform.ByName("Hera")
	plan, err := analytic.Optimal(core.PDMV, hera.Costs, hera.Rates)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := json.Marshal(plan.Pattern)
	if err != nil {
		t.Fatal(err)
	}
	evaluate := fmt.Sprintf(`{"pattern":%s,"platform":"Hera"}`, pat)
	if w := postJSON(t, h, "/v1/evaluate", evaluate); w.Code != http.StatusOK {
		t.Fatalf("valid evaluate body: status %d: %s", w.Code, w.Body)
	}
	cases := []struct {
		name, path, body string
	}{
		{"trailing brace", "/v1/plan", `{"kind":"PD","platform":"Hera"}}`},
		{"trailing bracket", "/v1/plan", `{"kind":"PD","platform":"Hera"}]`},
		{"trailing bracket and junk", "/v1/plan", `{"kind":"PD","platform":"Hera"}] x`},
		{"evaluate trailing brace", "/v1/evaluate", evaluate + `}`},
		{"evaluate trailing bracket", "/v1/evaluate", evaluate + `]`},
		{"evaluate trailing bracket and junk", "/v1/evaluate", evaluate + `] x`},
		{"duplicate folded name", "/v1/plan", `{"kind":"PD","KIND":"PDV","platform":"Hera"}`},
		{"duplicate costs", "/v1/plan/exact", `{"kind":"PD",` +
			`"costs":{"DiskCkpt":300,"MemCkpt":15,"DiskRec":300,"MemRec":15,"GuarVer":15,"PartVer":0.15,"Recall":0.8},` +
			`"costs":{"DiskCkpt":600},"rates":{"FailStop":1e-6,"Silent":1e-6}}`},
		{"bad json", "/v1/plan", `{`},
		{"unknown field", "/v1/plan", `{"kind":"PD","platform":"Hera","zzz":1}`},
		{"unknown kind", "/v1/plan", `{"kind":"PDQ","platform":"Hera"}`},
		{"unknown platform", "/v1/plan", `{"kind":"PD","platform":"Summit"}`},
		{"platform and costs", "/v1/plan", `{"kind":"PD","platform":"Hera","costs":{"Recall":1},"rates":{}}`},
		{"no config", "/v1/plan", `{"kind":"PD"}`},
		{"zero rates", "/v1/plan", `{"kind":"PD","costs":{"DiskCkpt":300,"MemCkpt":15,"DiskRec":300,"MemRec":15,"GuarVer":15,"PartVer":0.15,"Recall":0.8},"rates":{}}`},
		{"missing pattern", "/v1/evaluate", `{"platform":"Hera"}`},
		{"oversized batch", "/v1/batch", fmt.Sprintf(`{"requests":[%s]}`,
			strings.TrimSuffix(strings.Repeat(`{"op":"plan"},`, maxBatchItems+1), ","))},
	}
	for _, c := range cases {
		if w := postJSON(t, h, c.path, c.body); w.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", c.name, w.Code, w.Body)
		} else {
			var e errorBody
			if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Errorf("%s: missing error envelope: %s", c.name, w.Body)
			}
		}
	}
	// Wrong method.
	if w := getPath(t, h, "/v1/plan"); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/plan: status %d, want 405", w.Code)
	}
	// Oversized body: 413, not 400.
	huge := `{"kind":"PD","platform":"Hera","pad":"` + strings.Repeat("x", maxRequestBytes) + `"}`
	if w := postJSON(t, h, "/v1/plan", huge); w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", w.Code)
	}
}

func TestHealthz(t *testing.T) {
	h := New(Config{}).Handler()
	w := getPath(t, h, "/healthz")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body["status"] != "ok" {
		t.Fatalf("healthz body %s", w.Body)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	svc := New(Config{})
	h := svc.Handler()
	postJSON(t, h, "/v1/plan", `{"kind":"PD","platform":"Hera"}`)  // miss
	postJSON(t, h, "/v1/plan", `{"kind":"PD","platform":"Hera"}`)  // hit
	postJSON(t, h, "/v1/plan", `{"kind":"PDQ","platform":"Hera"}`) // error

	w := getPath(t, h, "/metrics")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var snap Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.CacheHits != 1 || snap.CacheMisses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", snap.CacheHits, snap.CacheMisses)
	}
	if snap.CacheEntries != 1 {
		t.Errorf("cacheEntries = %d, want 1", snap.CacheEntries)
	}
	if snap.InFlight != 0 {
		t.Errorf("inFlight = %d, want 0", snap.InFlight)
	}
	ep, ok := snap.Endpoints["plan"]
	if !ok {
		t.Fatal("missing plan endpoint metrics")
	}
	if ep.Requests != 3 || ep.Errors != 1 {
		t.Errorf("plan endpoint requests=%d errors=%d, want 3/1", ep.Requests, ep.Errors)
	}
	if ep.Latency.Count != 3 || ep.Latency.P50 <= 0 || ep.Latency.P99 < ep.Latency.P50 {
		t.Errorf("implausible latency quantiles: %+v", ep.Latency)
	}
}

// TestHeaderNamesCanonical: the service reads and writes headers by map
// index under these names, which finds a header only if its name is
// already in the canonical form net/http stores it under.
func TestHeaderNamesCanonical(t *testing.T) {
	for _, name := range []string{
		ForwardedHeader, OutcomeHeader, TimeoutHeader, obs.TraceHeader,
		"Content-Type", "Retry-After", "Server-Timing",
	} {
		if c := textproto.CanonicalMIMEHeaderKey(name); c != name {
			t.Errorf("header name %q is not canonical; net/http stores it as %q", name, c)
		}
	}
}
