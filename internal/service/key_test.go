package service

import (
	"math"
	"math/rand"
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
