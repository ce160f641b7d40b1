// Package cluster implements the consistent-hash ring that partitions
// the respatd key space across N replicas (DESIGN.md §2.9). Each
// member owns the arcs preceding its virtual nodes; a key routes to
// the member owning the first virtual node at or after the key's hash
// position, wrapping at the top of the 64-bit circle.
//
// The ring is deterministic: virtual-node positions are a pure
// function of (seed, member name, virtual-node index), and the ring is
// always rebuilt from the sorted member set, so two replicas that
// agree on the membership agree on every key's owner regardless of the
// order members joined. Membership change moves only the arcs adjacent
// to the added or removed member's virtual nodes — on a single
// join/leave the expected fraction of keys that change owner is 1/N,
// and the property tests bound it below 2/N.
//
// A Ring is immutable after New. When a health check marks a peer
// down or back up, the service's CheckPeerHealth rebuilds the ring
// with New over the live members, in map order, and swaps it in with
// one pointer store. Route is
// allocation-free, so the per-request owner lookup costs nothing
// measurable next to the cache probe it precedes (BenchmarkRingRoute;
// TestRingRouteZeroAlloc holds its loop at 0 allocs/op).
package cluster

import (
	"fmt"
	"sort"
)

// DefaultVNodes is the virtual-node count per member used when the
// caller passes vnodes <= 0. The per-member key share concentrates
// like 1/sqrt(vnodes): 512 virtual nodes keep the share of 16 members
// within ±15% of uniform with margin (worst observed ±8.5% on a
// 100k-key seeded population; asserted by the property tests), while
// the routing table stays small enough that Route's binary search is
// a handful of cache lines.
const DefaultVNodes = 512

// Ring is an immutable consistent-hash ring over a set of named
// members. Safe for concurrent use (it is never mutated after New).
type Ring struct {
	seed    uint64
	members []string // sorted, unique
	hashes  []uint64 // virtual-node positions, sorted
	owners  []int32  // hashes[i] belongs to members[owners[i]]
}

// New builds a ring of the given members with vnodes virtual nodes
// each (DefaultVNodes when vnodes <= 0). Placement is a pure function
// of (seed, member, index): equal inputs build identical rings, on any
// replica, in any membership order. Member names must be non-empty and
// unique; an empty member set is an error.
func New(seed uint64, vnodes int, members []string) (*Ring, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one member")
	}
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	sorted := append([]string(nil), members...)
	sort.Strings(sorted)
	for i, m := range sorted {
		if m == "" {
			return nil, fmt.Errorf("cluster: empty member name")
		}
		if i > 0 && sorted[i-1] == m {
			return nil, fmt.Errorf("cluster: duplicate member %q", m)
		}
	}
	r := &Ring{
		seed:    seed,
		members: sorted,
		hashes:  make([]uint64, 0, vnodes*len(sorted)),
		owners:  make([]int32, 0, vnodes*len(sorted)),
	}
	type vnode struct {
		hash  uint64
		owner int32
	}
	vns := make([]vnode, 0, vnodes*len(sorted))
	for mi, m := range sorted {
		base := hashString(seed, m)
		for v := 0; v < vnodes; v++ {
			vns = append(vns, vnode{hash: splitmix64(base + uint64(v)), owner: int32(mi)})
		}
	}
	// Sort by (hash, owner) so a hash collision between two members'
	// virtual nodes still resolves identically on every replica.
	sort.Slice(vns, func(i, j int) bool {
		if vns[i].hash != vns[j].hash {
			return vns[i].hash < vns[j].hash
		}
		return vns[i].owner < vns[j].owner
	})
	for _, vn := range vns {
		r.hashes = append(r.hashes, vn.hash)
		r.owners = append(r.owners, vn.owner)
	}
	return r, nil
}

// Route returns the member owning key: the owner of the first virtual
// node at or after the key's hash position, wrapping past the top of
// the circle. It allocates nothing; the returned string is shared with
// the ring's member table. Routing the canonical service cache key
// (internal/service.Key) is the intended use — the key bytes already
// canonicalise the configuration, so equal configurations route to the
// same replica by construction.
func (r *Ring) Route(key []byte) string {
	h := hashBytes(r.seed, key)
	// Binary search for the first virtual node >= h (inlined, so the
	// hot path takes no closure allocation).
	lo, hi := 0, len(r.hashes)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.hashes[mid] < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(r.hashes) {
		lo = 0 // wrap
	}
	return r.members[r.owners[lo]]
}

// Members returns the sorted member set (a copy).
func (r *Ring) Members() []string {
	return append([]string(nil), r.members...)
}

// hashString seeds a member's virtual-node sequence: FNV-1a over the
// name, folded with the ring seed.
func hashString(seed uint64, s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64) ^ splitmix64(seed)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// hashBytes positions a key on the circle: FNV-1a over the key bytes,
// folded with the ring seed and finalised through splitmix64 so nearby
// canonical keys (which differ in few bytes) spread uniformly.
func hashBytes(seed uint64, b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64) ^ splitmix64(seed)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return splitmix64(h)
}

// splitmix64 is the SplitMix64 finaliser, the same mixer the fault
// streams use (internal/faults); it turns sequential inputs into
// uniform positions.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
