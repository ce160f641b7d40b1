package service

import (
	"encoding/binary"
	"math"

	"respat/internal/core"
	"respat/internal/multilevel"
)

// Mode distinguishes the cacheable operations sharing the plan cache.
// It is the first byte of every cache key, so first-order, exact-model
// and multilevel plans for the same configuration never collide.
type Mode byte

// The cacheable service operations. A mode's value is its key byte,
// which the key hash and so the shard and the ring owner depend on.
const (
	ModePlan Mode = iota
	ModePlanExact
	_ // retired; keeps ModePlanMultilevel's keys on their shards and owners
	ModePlanMultilevel
)

// String names the mode as it appears in the HTTP API.
func (m Mode) String() string {
	switch m {
	case ModePlan:
		return "plan"
	case ModePlanExact:
		return "plan_exact"
	case ModePlanMultilevel:
		return "plan_multilevel"
	default:
		return "unknown"
	}
}

// Key layout: one mode byte, one discriminator byte (the pattern
// family for the single-level modes, the hierarchy depth L for the
// multilevel mode), then the payload as fixed 8-byte float fields.
// The single-level payload is the nine float64 parameters of
// (Costs, Rates); the multilevel payload is the level vector padded to
// MaxLevels (3 floats per level), the five scalar parameters and the
// family flag byte. KeySize is the maximum of the two; shorter
// payloads are zero-padded, which cannot collide across modes (byte 0)
// or across hierarchy depths (byte 1 pins how many level slots are
// meaningful).
const (
	singleLevelFloats = 9
	multilevelFloats  = 3*multilevel.MaxLevels + 5
	// KeySize is the byte length of a cache key.
	KeySize = 2 + 8*multilevelFloats + 1
)

// Key is the canonical cache key of a service configuration. It is a
// fixed-size value type, so it can be a map key and built on the stack
// without allocating.
//
// Canonical encoding contract: every float64 is stored as the
// big-endian bytes of its IEEE-754 bit pattern — a fixed-width binary
// field, never a formatted decimal — after normalising negative zero
// to positive zero. Equal configurations therefore always produce
// identical key bytes, and any change to any field changes the key
// (the encoding is injective on the validated domain: validation
// rejects NaNs, so the only two bit patterns comparing equal are ±0,
// which the normalisation merges).
type Key [KeySize]byte

// putFloat writes f at offset off with the -0 normalisation.
func (k *Key) putFloat(off int, f float64) {
	if f == 0 {
		f = 0 // normalise -0.0 to +0.0
	}
	binary.BigEndian.PutUint64(k[off:], math.Float64bits(f))
}

// EncodeKey builds the canonical key of (mode, kind, costs, rates) for
// the single-level operations. Callers must ensure kind.Valid() (the
// kind is truncated to one byte) and validate costs and rates;
// EncodeKey itself never fails.
func EncodeKey(mode Mode, kind core.Kind, c core.Costs, r core.Rates) Key {
	var k Key
	k[0] = byte(mode)
	k[1] = byte(kind)
	fields := [singleLevelFloats]float64{
		c.DiskCkpt, c.MemCkpt, c.DiskRec, c.MemRec,
		c.GuarVer, c.PartVer, c.Recall,
		r.FailStop, r.Silent,
	}
	for i, f := range fields {
		k.putFloat(2+8*i, f)
	}
	return k
}

// EncodeMultilevelKey builds the canonical key of a multilevel-plan
// configuration: the level vector (C_l, R_l, q_l per level, unused
// slots zero), the verification scalars, the rates and the
// interior-family flag. Callers must validate p first (validation
// bounds the hierarchy at MaxLevels, which sizes the key).
func EncodeMultilevelKey(p multilevel.Params) Key {
	var k Key
	k[0] = byte(ModePlanMultilevel)
	k[1] = byte(len(p.Levels))
	off := 2
	for _, l := range p.Levels {
		k.putFloat(off, l.Ckpt)
		k.putFloat(off+8, l.Rec)
		k.putFloat(off+16, l.Share)
		off += 24
	}
	off = 2 + 24*multilevel.MaxLevels
	for _, f := range [5]float64{p.GuarVer, p.PartVer, p.Recall, p.Rates.FailStop, p.Rates.Silent} {
		k.putFloat(off, f)
		off += 8
	}
	if p.InteriorGuaranteed {
		k[off] = 1
	}
	return k
}

// hash returns the FNV-1a 64-bit hash of the key bytes, used to select
// a cache shard. It is deterministic across processes and allocates
// nothing.
func (k Key) hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range k {
		h ^= uint64(b)
		h *= prime64
	}
	return h
}
