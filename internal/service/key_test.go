package service

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"respat/internal/core"
	"respat/internal/multilevel"
	"respat/internal/platform"
)

// randConfig draws a random valid (costs, rates) configuration.
func randConfig(rng *rand.Rand) (core.Costs, core.Rates) {
	c := core.Costs{
		DiskCkpt: rng.Float64() * 3000,
		MemCkpt:  rng.Float64() * 200,
		DiskRec:  rng.Float64() * 3000,
		MemRec:   rng.Float64() * 200,
		GuarVer:  rng.Float64() * 100,
		PartVer:  rng.Float64(),
		Recall:   0.05 + 0.95*rng.Float64(),
	}
	r := core.Rates{FailStop: rng.Float64() * 1e-5, Silent: rng.Float64() * 1e-5}
	return c, r
}

// TestKeyDeterministic: equal (Mode, Kind, Costs, Rates) values always
// produce identical key bytes, including across struct copies.
func TestKeyDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		c, r := randConfig(rng)
		kind := core.Kinds()[rng.Intn(6)]
		mode := Mode(rng.Intn(3))
		c2, r2 := c, r
		if EncodeKey(mode, kind, c, r) != EncodeKey(mode, kind, c2, r2) {
			t.Fatalf("iteration %d: equal values produced different keys", i)
		}
	}
}

// TestKeyPerturbationChangesKey: any single-field change to any of the
// nine float parameters, the family or the mode changes the key.
func TestKeyPerturbationChangesKey(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	perturb := func(f *float64) { *f = math.Nextafter(*f, math.Inf(1)) }
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
	for i := 0; i < 200; i++ {
		c, r := randConfig(rng)
		kind := core.Kinds()[rng.Intn(6)]
		base := EncodeKey(ModePlan, kind, c, r)
		for _, f := range fields {
			c2, r2 := c, r
			perturb(f.get(&c2, &r2))
			if EncodeKey(ModePlan, kind, c2, r2) == base {
				t.Fatalf("iteration %d: perturbing %s did not change the key", i, f.name)
			}
		}
		if EncodeKey(ModePlanExact, kind, c, r) == base {
			t.Fatal("mode change did not change the key")
		}
		for _, other := range core.Kinds() {
			if other != kind && EncodeKey(ModePlan, other, c, r) == base {
				t.Fatalf("kind change %v -> %v did not change the key", kind, other)
			}
		}
	}
}

// TestKeyNegativeZeroCanonical: -0.0 and +0.0 encode identically, so
// two configurations comparing equal under == can never produce
// distinct cache entries.
func TestKeyNegativeZeroCanonical(t *testing.T) {
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	c := hera.Costs
	c.PartVer = 0
	cNeg := c
	cNeg.PartVer = math.Copysign(0, -1)
	rNeg := hera.Rates
	rNeg.FailStop = 0
	rPos := rNeg
	rNeg.FailStop = math.Copysign(0, -1)
	if EncodeKey(ModePlan, core.PD, c, rPos) != EncodeKey(ModePlan, core.PD, cNeg, rNeg) {
		t.Fatal("-0.0 fields produced a different key than +0.0")
	}
}

// TestKeyGridNoCollisions: the full Table 2 platforms × six families ×
// cacheable modes grid yields pairwise-distinct keys.
func TestKeyGridNoCollisions(t *testing.T) {
	seen := make(map[Key]string)
	for _, p := range platform.Table2() {
		for _, k := range core.Kinds() {
			for _, mode := range []Mode{ModePlan, ModePlanExact} {
				key := EncodeKey(mode, k, p.Costs, p.Rates)
				id := p.Name + "/" + k.String() + "/" + mode.String()
				if prev, dup := seen[key]; dup {
					t.Fatalf("key collision: %s and %s", prev, id)
				}
				seen[key] = id
			}
		}
	}
	if len(seen) != 4*6*2 {
		t.Fatalf("expected %d distinct keys, got %d", 4*6*2, len(seen))
	}
}

// TestKeyShardStable: the shard assignment of a key is a pure function
// of its bytes, so a configuration is always served by the same shard
// and, in a cluster, the same ring owner. Each mode's key byte is
// pinned too: renumbering a mode would move all its keys.
func TestKeyShardStable(t *testing.T) {
	c := newCache(16, 1024, &Metrics{})
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	key := EncodeKey(ModePlan, core.PDMV, hera.Costs, hera.Rates)
	want := c.shard(key)
	for i := 0; i < 32; i++ {
		if c.shard(EncodeKey(ModePlan, core.PDMV, hera.Costs, hera.Rates)) != want {
			t.Fatal("shard assignment not stable")
		}
	}
	p, err := multilevel.FromPlatform(hera, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		mode Mode
		key  Key
		want byte
	}{
		{ModePlan, EncodeKey(ModePlan, core.PDMV, hera.Costs, hera.Rates), 0},
		{ModePlanExact, EncodeKey(ModePlanExact, core.PDMV, hera.Costs, hera.Rates), 1},
		{ModePlanMultilevel, EncodeMultilevelKey(p), 3},
	} {
		if byte(tc.mode) != tc.want || tc.key[0] != tc.want {
			t.Errorf("%v: mode byte %d, key byte %d, want %d", tc.mode, byte(tc.mode), tc.key[0], tc.want)
		}
	}
}

// TestPlanKeyOverHTTP: a plan route given a key body, as a forward
// sends it, serves the bytes of the JSON body the key was built from,
// and answers 400 to every key the encoders cannot produce for the
// route's mode. Values are checked where the JSON bodies' are: a
// multilevel key's params as it is decoded, a single-level key's costs
// and rates when it is planned.
func TestPlanKeyOverHTTP(t *testing.T) {
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	params, err := multilevel.FromPlatform(hera, 3)
	if err != nil {
		t.Fatal(err)
	}
	h := New(Config{}).Handler()
	post := func(path, contentType string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	plan := EncodeKey(ModePlan, core.PDMV, hera.Costs, hera.Rates)
	exact := EncodeKey(ModePlanExact, core.PDMV, hera.Costs, hera.Rates)
	ml := EncodeMultilevelKey(params)
	for _, tc := range []struct {
		path string
		key  Key
		json string
	}{
		{"/v1/plan", plan, `{"kind":"PDMV","platform":"Hera"}`},
		{"/v1/plan/exact", exact, `{"kind":"PDMV","platform":"Hera"}`},
		{"/v1/plan/multilevel", ml, `{"platform":"Hera","levels":3}`},
	} {
		want := post(tc.path, "application/json", []byte(tc.json))
		got := post(tc.path, peerBodyType, tc.key[:])
		if want.Code != http.StatusOK || got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s: key body served %d %q, JSON body %d %q", tc.path, got.Code, got.Body, want.Code, want.Body)
		}
	}

	edit := func(k Key, f func(k *Key)) []byte {
		f(&k)
		return k[:]
	}
	setFloat := func(off int, v float64) func(k *Key) {
		return func(k *Key) { binary.BigEndian.PutUint64(k[off:], math.Float64bits(v)) }
	}
	for _, tc := range []struct {
		name, path string
		body       []byte
	}{
		{"empty", "/v1/plan", nil},
		{"truncated", "/v1/plan", plan[:KeySize-1]},
		{"one byte long", "/v1/plan", append(plan[:], 0)},
		{"another mode", "/v1/plan", exact[:]},
		{"multilevel key on exact", "/v1/plan/exact", ml[:]},
		{"exact key on multilevel", "/v1/plan/multilevel", exact[:]},
		{"family 6", "/v1/plan", edit(plan, func(k *Key) { k[1] = 6 })},
		{"family 255", "/v1/plan/exact", edit(exact, func(k *Key) { k[1] = 255 })},
		{"depth 0", "/v1/plan/multilevel", edit(ml, func(k *Key) { k[1] = 0 })},
		{"depth 5", "/v1/plan/multilevel", edit(ml, func(k *Key) { k[1] = 5 })},
		{"single-level padding", "/v1/plan", edit(plan, func(k *Key) { k[2+8*singleLevelFloats] = 1 })},
		{"single-level last byte", "/v1/plan/exact", edit(exact, func(k *Key) { k[KeySize-1] = 1 })},
		{"unused level slot", "/v1/plan/multilevel", edit(ml, func(k *Key) { k[2+24*3+7] = 1 })},
		{"flag byte 2", "/v1/plan/multilevel", edit(ml, func(k *Key) { k[KeySize-1] = 2 })},
		{"-0 cost", "/v1/plan", edit(plan, setFloat(2+8*5, math.Copysign(0, -1)))},
		{"-0 level cost", "/v1/plan/multilevel", edit(ml, setFloat(2, math.Copysign(0, -1)))},
		{"negative cost", "/v1/plan/exact", edit(exact, setFloat(2, -1))},
		{"NaN rate", "/v1/plan", edit(plan, setFloat(2+8*7, math.NaN()))},
		{"shares not summing to 1", "/v1/plan/multilevel", edit(ml, setFloat(2+16, 0.9))},
	} {
		if rec := post(tc.path, peerBodyType, tc.body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, rec.Code, rec.Body)
		}
	}
}

// FuzzPlanKeyDecode holds decodePlanKey to the key encoders. Every
// input is tried as a key of each mode: decoding never panics, and a
// key it accepts re-encodes to its own bytes. Every input is also tried
// as a JSON plan body: the key of a body the JSON decoders accept
// decodes, and rebuilds the decoded request, −0 read as +0. Plain `go
// test` replays the committed corpus in testdata/fuzz/FuzzPlanKeyDecode
// and the bodies of FuzzPlanRequestDecode's.
func FuzzPlanKeyDecode(f *testing.F) {
	for _, body := range fuzzSeeds(f, "FuzzPlanRequestDecode") {
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if msg := checkKeyDecoder(raw); msg != "" {
			t.Fatalf("input %q: %s", raw, msg)
		}
	})
}

// checkKeyDecoder runs FuzzPlanKeyDecode's checks on raw and describes
// the first failure, or returns "".
func checkKeyDecoder(raw []byte) string {
	for _, mode := range []Mode{ModePlan, ModePlanExact, ModePlanMultilevel} {
		q, err := decodePlanKey(raw, mode)
		if err != nil {
			continue
		}
		if k := q.key(); !bytes.Equal(k[:], raw) {
			return fmt.Sprintf("%v key accepted, but re-encodes to %x", mode, k)
		}
	}
	var built []planRequest
	if kind, costs, rates, err := parsePlanRequest(raw); err == nil {
		built = append(built,
			planRequest{mode: ModePlan, kind: kind, costs: costs, rates: rates},
			planRequest{mode: ModePlanExact, kind: kind, costs: costs, rates: rates})
	}
	if p, err := parseMultilevelRequest(raw); err == nil {
		built = append(built, planRequest{mode: ModePlanMultilevel, params: p})
	}
	for _, want := range built {
		key := want.key()
		got, err := decodePlanKey(key[:], want.mode)
		switch {
		case err != nil:
			return fmt.Sprintf("%v key of a decoded body rejected: %v", want.mode, err)
		case !sameRequest(got, want):
			return fmt.Sprintf("%v key rebuilt %+v from %+v", want.mode, got, want)
		}
	}
	return ""
}

// sameRequest reports whether two requests are equal field by field
// under ==, which reads −0 as +0.
func sameRequest(a, b planRequest) bool {
	pa, pb := a.params, b.params
	return a.mode == b.mode && a.kind == b.kind && a.costs == b.costs && a.rates == b.rates &&
		slices.Equal(pa.Levels, pb.Levels) && pa.GuarVer == pb.GuarVer && pa.PartVer == pb.PartVer &&
		pa.Recall == pb.Recall && pa.Rates == pb.Rates && pa.InteriorGuaranteed == pb.InteriorGuaranteed
}
