package respat_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"respat/internal/core"
	"respat/internal/multilevel"
	"respat/internal/platform"
	"respat/internal/service"
)

// TestServedRoutesMatchExportedMethods pins every plan entry of the
// service to one answer. Over the service digest's configurations,
// each plan route served through Handler() answers 200, with no
// outcome header, the bytes of the exported method plus the trailing
// newline: /v1/plan and /v1/plan/exact for all six families, and
// /v1/plan/multilevel at L=2 and L=3. A clustered pass sends every
// such request to each of three replicas, so a peer-owned key answers
// through its owner, with the same bytes. A /v1/batch of plan and
// plan/exact items answers the same bytes per item. Routes, cluster,
// batch and methods each run on services of their own, so every side
// plans cold.
func TestServedRoutesMatchExportedMethods(t *testing.T) {
	methods := service.New(service.Config{})
	routes := service.New(service.Config{}).Handler()
	replicas, entries := newReplicaGroup(t, 3, func() service.Config { return service.Config{} })
	post := func(h http.Handler, path string, req any) []byte {
		t.Helper()
		rec := postJSON(t, h, path, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		if out := rec.Header().Get(service.OutcomeHeader); out != "" {
			t.Fatalf("%s: outcome header %q", path, out)
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
	// same requires the single replica and every entry replica of the
	// cluster to serve the method's bytes.
	same := func(what, path string, req any, method []byte) {
		t.Helper()
		line := append(method[:len(method):len(method)], '\n')
		if served := post(routes, path, req); !bytes.Equal(served, line) {
			t.Errorf("%s: served %q, method %q", what, served, method)
		}
		for i, h := range entries {
			if served := post(h, path, req); !bytes.Equal(served, line) {
				t.Errorf("%s via r%d: served %q, method %q", what, i, served, method)
			}
		}
	}

	var batch service.BatchRequest
	var batchWant [][]byte
	for i, p := range servedConfigs() {
		for _, k := range core.Kinds() {
			req := service.PlanRequest{Kind: k.String(), Costs: &p.Costs, Rates: &p.Rates}
			plan := want(methods.Plan(k, p.Costs, p.Rates))
			same(p.Name+" "+k.String()+" /v1/plan", "/v1/plan", req, plan)
			exact := want(methods.PlanExact(k, p.Costs, p.Rates))
			same(p.Name+" "+k.String()+" /v1/plan/exact", "/v1/plan/exact", req, exact)
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
			req := service.MultilevelPlanRequest{Params: &params}
			same(p.Name+" /v1/plan/multilevel", "/v1/plan/multilevel", req, want(methods.PlanMultilevel(params)))
		}
		if t.Failed() {
			t.Fatalf("configuration %d differs", i)
		}
	}
	var forwarded, forwardErrors int64
	for _, s := range replicas {
		forwarded += s.Metrics().Forwarded.Load()
		forwardErrors += s.Metrics().ForwardErrors.Load()
	}
	if forwarded == 0 || forwardErrors != 0 {
		t.Fatalf("cluster forwarded %d requests with %d errors; the clustered pass must reach owners", forwarded, forwardErrors)
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

// TestServedNegativeZeroMatchesPositive requires a configuration with
// a −0 field to serve the bytes of its +0 twin, status included, on
// all three plan routes. The cache key normalises −0, so the twins
// share one cache entry and one ring owner, and every replica plans
// from the key's values, as an owner reached by a forward must. Each
// field is zeroed in turn on each Table 2 platform: the seven costs
// and two rates of a single-level plan for all six families, and the
// per-level and scalar fields of an L=2 multilevel plan. Twins that
// are invalid, such as a zero single-level recall, compare error
// bodies. The multilevel recall is left out: multilevel params are
// validated before their key is built, so a zero recall fails on the
// entry replica, the same from every entry, quoting the body's sign.
// The twins run on services of their own, so each plans cold.
func TestServedNegativeZeroMatchesPositive(t *testing.T) {
	pos := service.New(service.Config{}).Handler()
	neg := service.New(service.Config{}).Handler()
	negZero := math.Copysign(0, -1)
	twins := func(what, path string, req func(zero float64) any) {
		t.Helper()
		a, b := postJSON(t, pos, path, req(0)), postJSON(t, neg, path, req(negZero))
		if a.Code != b.Code || !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
			t.Errorf("%s: +0 served %d %q, -0 served %d %q", what, a.Code, a.Body, b.Code, b.Body)
		}
	}
	for _, p := range platform.Table2() {
		fields := []struct {
			name string
			get  func(c *core.Costs, r *core.Rates) *float64
		}{
			{"DiskCkpt", func(c *core.Costs, r *core.Rates) *float64 { return &c.DiskCkpt }},
			{"MemCkpt", func(c *core.Costs, r *core.Rates) *float64 { return &c.MemCkpt }},
			{"DiskRec", func(c *core.Costs, r *core.Rates) *float64 { return &c.DiskRec }},
			{"MemRec", func(c *core.Costs, r *core.Rates) *float64 { return &c.MemRec }},
			{"GuarVer", func(c *core.Costs, r *core.Rates) *float64 { return &c.GuarVer }},
			{"PartVer", func(c *core.Costs, r *core.Rates) *float64 { return &c.PartVer }},
			{"Recall", func(c *core.Costs, r *core.Rates) *float64 { return &c.Recall }},
			{"FailStop", func(c *core.Costs, r *core.Rates) *float64 { return &r.FailStop }},
			{"Silent", func(c *core.Costs, r *core.Rates) *float64 { return &r.Silent }},
		}
		for _, f := range fields {
			for _, k := range core.Kinds() {
				req := func(zero float64) any {
					c, r := p.Costs, p.Rates
					*f.get(&c, &r) = zero
					return service.PlanRequest{Kind: k.String(), Costs: &c, Rates: &r}
				}
				for _, path := range []string{"/v1/plan", "/v1/plan/exact"} {
					twins(fmt.Sprintf("%s %s %s=0 %s", p.Name, k, f.name, path), path, req)
				}
			}
		}
		base, err := multilevel.FromPlatform(p, 2)
		if err != nil {
			t.Fatal(err)
		}
		mlFields := []struct {
			name string
			get  func(p *multilevel.Params) *float64
		}{
			{"GuarVer", func(p *multilevel.Params) *float64 { return &p.GuarVer }},
			{"PartVer", func(p *multilevel.Params) *float64 { return &p.PartVer }},
			{"FailStop", func(p *multilevel.Params) *float64 { return &p.Rates.FailStop }},
			{"Silent", func(p *multilevel.Params) *float64 { return &p.Rates.Silent }},
		}
		for l := range base.Levels {
			mlFields = append(mlFields,
				struct {
					name string
					get  func(p *multilevel.Params) *float64
				}{fmt.Sprintf("Levels[%d].Ckpt", l), func(p *multilevel.Params) *float64 { return &p.Levels[l].Ckpt }},
				struct {
					name string
					get  func(p *multilevel.Params) *float64
				}{fmt.Sprintf("Levels[%d].Rec", l), func(p *multilevel.Params) *float64 { return &p.Levels[l].Rec }},
				struct {
					name string
					get  func(p *multilevel.Params) *float64
				}{fmt.Sprintf("Levels[%d].Share", l), func(p *multilevel.Params) *float64 { return &p.Levels[l].Share }})
		}
		for _, f := range mlFields {
			req := func(zero float64) any {
				q := base
				q.Levels = append([]multilevel.Level(nil), base.Levels...)
				*f.get(&q) = zero
				return service.MultilevelPlanRequest{Params: &q}
			}
			twins(fmt.Sprintf("%s L=2 %s=0 /v1/plan/multilevel", p.Name, f.name), "/v1/plan/multilevel", req)
		}
	}
}

// postJSON posts req, marshalled, to h's path.
func postJSON(t *testing.T, h http.Handler, path string, req any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
	return rec
}

// replicaGroup is an in-process network of respatd replicas: a request
// for host rN is served by replica N's handler, with no socket.
type replicaGroup map[string]http.Handler

func (g replicaGroup) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := g[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no replica named %q", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

// newReplicaGroup joins n fresh services, r0..r(n-1), each built from
// a config of its own, into one cluster over a replicaGroup with
// respatd's default ring, and returns them with their handlers.
func newReplicaGroup(tb testing.TB, n int, config func() service.Config) ([]*service.Service, []http.Handler) {
	tb.Helper()
	group := make(replicaGroup, n)
	members := make([]service.Member, n)
	for i := range members {
		name := fmt.Sprintf("r%d", i)
		members[i] = service.Member{Name: name, URL: "http://" + name}
	}
	services := make([]*service.Service, n)
	handlers := make([]http.Handler, n)
	for i, m := range members {
		services[i] = service.New(config())
		if err := services[i].EnableCluster(service.ClusterConfig{Self: m.Name, Members: members, Transport: group}); err != nil {
			tb.Fatal(err)
		}
		handlers[i] = services[i].Handler()
		group[m.Name] = handlers[i]
	}
	return services, handlers
}
