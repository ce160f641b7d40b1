package service

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"testing"

	"respat/internal/core"
	"respat/internal/multilevel"
	"respat/internal/platform"
)

// randMultilevelParams draws a random valid multilevel configuration
// with the given hierarchy depth.
func randMultilevelParams(rng *rand.Rand, levels int) multilevel.Params {
	p := multilevel.Params{
		Levels:  make([]multilevel.Level, levels),
		GuarVer: rng.Float64() * 50,
		PartVer: rng.Float64(),
		Recall:  0.05 + 0.95*rng.Float64(),
		Rates:   core.Rates{FailStop: rng.Float64() * 1e-5, Silent: rng.Float64() * 1e-5},
	}
	rest := 1.0
	for l := 0; l < levels; l++ {
		p.Levels[l] = multilevel.Level{
			Ckpt: rng.Float64() * 1000,
			Rec:  rng.Float64() * 1000,
		}
		share := rest * rng.Float64()
		if l == levels-1 {
			share = rest
		}
		p.Levels[l].Share = share
		rest -= share
	}
	return p
}

// TestMultilevelKeyInjectiveAcrossLevelVectors: the canonical key
// separates distinct level vectors — any perturbation of any per-level
// field, any scalar, the family flag or the hierarchy depth changes
// the key, and equal configurations (including ±0 fields) encode
// identically.
func TestMultilevelKeyInjectiveAcrossLevelVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	perturb := func(f *float64) { *f = math.Nextafter(*f, math.Inf(1)) }
	for i := 0; i < 200; i++ {
		levels := 1 + rng.Intn(multilevel.MaxLevels)
		p := randMultilevelParams(rng, levels)
		if err := p.Validate(); err != nil {
			t.Fatalf("random params invalid: %v", err)
		}
		base := EncodeMultilevelKey(p)

		// Determinism across deep copies.
		cp := p
		cp.Levels = append([]multilevel.Level(nil), p.Levels...)
		if EncodeMultilevelKey(cp) != base {
			t.Fatal("equal configurations produced different keys")
		}
		// Per-level field perturbations.
		for l := 0; l < levels; l++ {
			for f := 0; f < 3; f++ {
				cp := p
				cp.Levels = append([]multilevel.Level(nil), p.Levels...)
				switch f {
				case 0:
					perturb(&cp.Levels[l].Ckpt)
				case 1:
					perturb(&cp.Levels[l].Rec)
				case 2:
					perturb(&cp.Levels[l].Share)
				}
				if EncodeMultilevelKey(cp) == base {
					t.Fatalf("perturbing level %d field %d did not change the key", l+1, f)
				}
			}
		}
		// Scalar perturbations and the family flag.
		for f := 0; f < 5; f++ {
			cp := p
			cp.Levels = append([]multilevel.Level(nil), p.Levels...)
			switch f {
			case 0:
				perturb(&cp.GuarVer)
			case 1:
				perturb(&cp.PartVer)
			case 2:
				perturb(&cp.Recall)
			case 3:
				perturb(&cp.Rates.FailStop)
			case 4:
				perturb(&cp.Rates.Silent)
			}
			if EncodeMultilevelKey(cp) == base {
				t.Fatalf("perturbing scalar %d did not change the key", f)
			}
		}
		cp = p
		cp.InteriorGuaranteed = !p.InteriorGuaranteed
		if EncodeMultilevelKey(cp) == base {
			t.Fatal("flipping InteriorGuaranteed did not change the key")
		}
	}
}

// TestMultilevelKeyDepthNotConfusedWithPadding: a hierarchy extended
// by an all-zero level never collides with the shorter hierarchy
// (the depth byte pins how many level slots are meaningful), and the
// multilevel mode never collides with the single-level modes.
func TestMultilevelKeyDepthNotConfusedWithPadding(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 100; i++ {
		levels := 1 + rng.Intn(multilevel.MaxLevels-1)
		p := randMultilevelParams(rng, levels)
		padded := p
		padded.Levels = append(append([]multilevel.Level(nil), p.Levels...), multilevel.Level{})
		if EncodeMultilevelKey(p) == EncodeMultilevelKey(padded) {
			t.Fatal("zero-padded deeper hierarchy collided with the shorter one")
		}
	}
	// ±0 normalisation holds for multilevel fields too.
	p := randMultilevelParams(rng, 2)
	p.Levels[0].Ckpt = 0
	n := p
	n.Levels = append([]multilevel.Level(nil), p.Levels...)
	n.Levels[0].Ckpt = math.Copysign(0, -1)
	if EncodeMultilevelKey(p) != EncodeMultilevelKey(n) {
		t.Fatal("-0.0 level field produced a different key than +0.0")
	}
}

// TestMultilevelCachedByteIdenticalToCold: the §3 memo contract for
// the multilevel endpoint — a cache hit serves exactly the bytes a
// cold computation produced, both through the Go API and over HTTP.
func TestMultilevelCachedByteIdenticalToCold(t *testing.T) {
	warm := New(Config{})
	for _, pl := range platform.Table2() {
		for levels := 1; levels <= 3; levels++ {
			p, err := multilevel.FromPlatform(pl, levels)
			if err != nil {
				t.Fatal(err)
			}
			cold, err := warm.PlanMultilevel(p)
			if err != nil {
				t.Fatal(err)
			}
			hot, err := warm.PlanMultilevel(p)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := New(Config{}).PlanMultilevel(p)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(cold, hot) || !bytes.Equal(hot, fresh) {
				t.Fatalf("%s L=%d: cached multilevel plan bytes differ from cold computation", pl.Name, levels)
			}
		}
	}
	if warm.Metrics().Hits.Load() == 0 {
		t.Fatal("no cache hits recorded")
	}
}

// TestMultilevelEndpoint: the HTTP face — platform form, explicit
// params form, response shape and strict request decoding.
func TestMultilevelEndpoint(t *testing.T) {
	h := New(Config{}).Handler()
	w := postJSON(t, h, "/v1/plan/multilevel", `{"platform":"Hera","levels":2}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp MultilevelPlanResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Levels != 2 || len(resp.Counts) != 2 || resp.Counts[1] != 1 {
		t.Fatalf("response %+v: want a 2-level plan with n_2 = 1", resp)
	}
	if resp.W <= 0 || resp.Overhead <= 0 || resp.M < 1 {
		t.Fatalf("response %+v: degenerate plan", resp)
	}

	// Explicit params form matches the derived configuration.
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	p, err := multilevel.FromPlatform(hera, 2)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(MultilevelPlanRequest{Params: &p})
	if err != nil {
		t.Fatal(err)
	}
	w2 := postJSON(t, h, "/v1/plan/multilevel", string(body))
	if w2.Code != http.StatusOK {
		t.Fatalf("explicit params: status %d: %s", w2.Code, w2.Body.String())
	}
	if !bytes.Equal(bytes.TrimSpace(w.Body.Bytes()), bytes.TrimSpace(w2.Body.Bytes())) {
		t.Fatal("platform form and equivalent explicit params served different bytes")
	}

	for _, bad := range []string{
		`{"platform":"Hera"}`,                       // missing levels
		`{"levels":2}`,                              // missing configuration
		`{"platform":"Hera","levels":9}`,            // beyond MaxLevels
		`{"platform":"Hera","levels":2,"x":1}`,      // unknown field
		`{"params":{"Levels":[]},"levels":1}`,       // levels with params
		`{"platform":"Nowhere","levels":2}`,         // unknown platform
		`{"params":{"Levels":[],"Recall":0.5}}`,     // invalid params
		`{"platform":"Hera","levels":2}{"x": "y"}`,  // trailing data
		`{"platform":"Hera","levels":2}}`,           // trailing brace
		`{"platform":"Hera","levels":2}]`,           // trailing bracket
		`{"platform":"Hera","levels":2}] x`,         // trailing bracket and junk
		`{"platform":"Hera","levels":2,"LEVELS":3}`, // duplicate folded name
		`{"params":{"Levels":[{"Ckpt":1,"Rec":1,"Share":1}],"Recall":0.5,"Recall":0.8,` +
			`"Rates":{"FailStop":1e-6,"Silent":1e-6}}}`, // duplicate Recall inside params
	} {
		if w := postJSON(t, h, "/v1/plan/multilevel", bad); w.Code != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", bad, w.Code)
		}
	}
}

// TestMultilevelMetricsLabelled: /metrics reports the multilevel
// endpoint's latency quantiles under its own label, separate from
// plan_exact.
func TestMultilevelMetricsLabelled(t *testing.T) {
	svc := New(Config{})
	h := svc.Handler()
	if w := postJSON(t, h, "/v1/plan/multilevel", `{"platform":"Hera","levels":2}`); w.Code != http.StatusOK {
		t.Fatalf("plan/multilevel: %d", w.Code)
	}
	if w := postJSON(t, h, "/v1/plan/exact", `{"kind":"PD","platform":"Hera"}`); w.Code != http.StatusOK {
		t.Fatalf("plan/exact: %d", w.Code)
	}
	w := getPath(t, h, "/metrics")
	var snap Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	ml, ok := snap.Endpoints["plan_multilevel"]
	if !ok {
		t.Fatal("no plan_multilevel endpoint row in /metrics")
	}
	if ml.Requests != 1 || ml.Latency.Count != 1 {
		t.Errorf("plan_multilevel row %+v: want 1 request / 1 latency observation", ml)
	}
	if ex := snap.Endpoints["plan_exact"]; ex.Requests != 1 {
		t.Errorf("plan_exact row %+v: want exactly the one exact request (not pooled)", ex)
	}
}

// TestMultilevelHotPathZeroAlloc is the CI gate preserving the PR 2
// contract on the new endpoint: a multilevel plan cache hit — key
// encoding plus the sharded cache lookup — performs zero allocations.
func TestMultilevelHotPathZeroAlloc(t *testing.T) {
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	p, err := multilevel.FromPlatform(hera, 3)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{})
	if _, err := svc.PlanMultilevel(p); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := svc.PlanMultilevel(p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("multilevel plan cache hit allocates: %v allocs/op, want 0", allocs)
	}
}
