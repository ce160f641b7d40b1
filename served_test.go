package respat_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"respat/internal/core"
	"respat/internal/multilevel"
	"respat/internal/service"
)

// TestServedRoutesMatchExportedMethods pins every plan entry of the
// service to one answer. Over the service digest's configurations,
// each plan route served through Handler() answers 200, with no
// outcome header, the bytes of the exported method plus the trailing
// newline: /v1/plan and /v1/plan/exact for all six families, and
// /v1/plan/multilevel at L=2 and L=3. A /v1/batch of plan and
// plan/exact items answers the same bytes per item. Routes, batch and
// methods each run on a service of their own, so every side plans
// cold.
func TestServedRoutesMatchExportedMethods(t *testing.T) {
	methods := service.New(service.Config{})
	routes := service.New(service.Config{}).Handler()
	post := func(h http.Handler, path string, req any) []byte {
		t.Helper()
		raw, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", path, raw, rec.Code, rec.Body)
		}
		if out := rec.Header().Get(service.OutcomeHeader); out != "" {
			t.Fatalf("%s %s: outcome header %q", path, raw, out)
		}
		return rec.Body.Bytes()
	}
	want := func(b []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	same := func(what string, served, method []byte) {
		t.Helper()
		if !bytes.Equal(served, append(method[:len(method):len(method)], '\n')) {
			t.Errorf("%s: served %q, method %q", what, served, method)
		}
	}

	var batch service.BatchRequest
	var batchWant [][]byte
	for i, p := range servedConfigs() {
		for _, k := range core.Kinds() {
			req := service.PlanRequest{Kind: k.String(), Costs: &p.Costs, Rates: &p.Rates}
			plan := want(methods.Plan(k, p.Costs, p.Rates))
			same(p.Name+" "+k.String()+" /v1/plan", post(routes, "/v1/plan", req), plan)
			exact := want(methods.PlanExact(k, p.Costs, p.Rates))
			same(p.Name+" "+k.String()+" /v1/plan/exact", post(routes, "/v1/plan/exact", req), exact)
			batch.Requests = append(batch.Requests,
				service.BatchItem{Op: "plan", Kind: req.Kind, Costs: req.Costs, Rates: req.Rates},
				service.BatchItem{Op: "plan/exact", Kind: req.Kind, Costs: req.Costs, Rates: req.Rates})
			batchWant = append(batchWant, plan, exact)
		}
		for _, levels := range []int{2, 3} {
			params, err := multilevel.FromPlatform(p, levels)
			if err != nil {
				t.Fatal(err)
			}
			served := post(routes, "/v1/plan/multilevel", service.MultilevelPlanRequest{Params: &params})
			same(p.Name+" /v1/plan/multilevel", served, want(methods.PlanMultilevel(params)))
		}
		if t.Failed() {
			t.Fatalf("configuration %d differs", i)
		}
	}

	var resp service.BatchResponse
	body := post(service.New(service.Config{}).Handler(), "/v1/batch", batch)
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Responses) != len(batchWant) {
		t.Fatalf("batch answered %d items, want %d", len(resp.Responses), len(batchWant))
	}
	for i, item := range resp.Responses {
		if !bytes.Equal(item, batchWant[i]) {
			t.Errorf("batch item %d (%s): served %q, method %q", i, batch.Requests[i].Op, item, batchWant[i])
		}
	}
}
