package cluster

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"testing"
)

// testKeys builds n deterministic pseudo-random keys shaped like the
// canonical service cache key (a fixed-width binary blob).
func testKeys(seed uint64, n int) [][]byte {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	keys := make([][]byte, n)
	for i := range keys {
		k := make([]byte, 139)
		for off := 0; off+8 <= len(k); off += 8 {
			binary.BigEndian.PutUint64(k[off:], rng.Uint64())
		}
		keys[i] = k
	}
	return keys
}

func members(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("replica-%02d", i)
	}
	return out
}

func TestRingDeterministicAcrossJoinOrder(t *testing.T) {
	ms := members(5)
	a, err := New(42, 64, ms)
	if err != nil {
		t.Fatal(err)
	}
	// Build the same membership from a different order, as the
	// service's health check does from its map of live peers.
	b, err := New(42, 64, []string{ms[3], ms[0], ms[4], ms[2], ms[1]})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range testKeys(1, 2000) {
		if got, want := b.Route(k), a.Route(k); got != want {
			t.Fatalf("join-order dependence: key routes to %s vs %s", got, want)
		}
	}
}

func TestRingValidation(t *testing.T) {
	if _, err := New(1, 16, nil); err == nil {
		t.Fatal("empty member set accepted")
	}
	if _, err := New(1, 16, []string{"a", "a"}); err == nil {
		t.Fatal("duplicate member accepted")
	}
	if _, err := New(1, 16, []string{""}); err == nil {
		t.Fatal("empty member name accepted")
	}
}

// TestRingDistribution asserts near-uniform key spread: every one of
// 16 replicas owns within ±15% of the uniform share of a large seeded
// key population.
func TestRingDistribution(t *testing.T) {
	const (
		replicas = 16
		keys     = 100000
	)
	r, err := New(7, DefaultVNodes, members(replicas))
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int, replicas)
	for _, k := range testKeys(99, keys) {
		counts[r.Route(k)]++
	}
	if len(counts) != replicas {
		t.Fatalf("only %d of %d replicas own keys", len(counts), replicas)
	}
	uniform := float64(keys) / replicas
	for m, c := range counts {
		dev := (float64(c) - uniform) / uniform
		if dev < -0.15 || dev > 0.15 {
			t.Errorf("%s owns %d keys, %.1f%% from uniform share %.0f (tolerance ±15%%)",
				m, c, 100*dev, uniform)
		}
	}
}

// TestRingMinimalMovement asserts consistent hashing's defining
// property: a single join or leave moves fewer than 2/N of the keys.
func TestRingMinimalMovement(t *testing.T) {
	const (
		replicas = 16
		keys     = 50000
	)
	base, err := New(3, DefaultVNodes, members(replicas))
	if err != nil {
		t.Fatal(err)
	}
	ks := testKeys(11, keys)
	before := make([]string, len(ks))
	for i, k := range ks {
		before[i] = base.Route(k)
	}

	joined, err := New(3, DefaultVNodes, append(members(replicas), "replica-new"))
	if err != nil {
		t.Fatal(err)
	}
	var movedJoin int
	for i, k := range ks {
		if joined.Route(k) != before[i] {
			movedJoin++
		}
	}
	if limit := 2 * keys / replicas; movedJoin >= limit {
		t.Errorf("join moved %d/%d keys, want < %d (2/N)", movedJoin, keys, limit)
	}

	var rest []string
	for _, m := range members(replicas) {
		if m != "replica-07" {
			rest = append(rest, m)
		}
	}
	left, err := New(3, DefaultVNodes, rest)
	if err != nil {
		t.Fatal(err)
	}
	var movedLeave, movedForeign int
	for i, k := range ks {
		if got := left.Route(k); got != before[i] {
			movedLeave++
			if before[i] != "replica-07" {
				movedForeign++
			}
		}
	}
	if limit := 2 * keys / replicas; movedLeave >= limit {
		t.Errorf("leave moved %d/%d keys, want < %d (2/N)", movedLeave, keys, limit)
	}
	// Leaving may only reassign the leaver's own keys.
	if movedForeign != 0 {
		t.Errorf("leave moved %d keys that replica-07 did not own", movedForeign)
	}
}

func TestRingRouteZeroAlloc(t *testing.T) {
	r, err := New(1, DefaultVNodes, members(16))
	if err != nil {
		t.Fatal(err)
	}
	ks := testKeys(4, 64)
	var sink string
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		sink = r.Route(ks[i%len(ks)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("Route allocates %.1f times per call, want 0", allocs)
	}
	_ = sink
}
