package service

import (
	"encoding/binary"
	"fmt"
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

// negativeZero is the bit pattern of −0, which no key holds.
const negativeZero = 1 << 63

// decodePlanKey is the strict inverse of EncodeKey and
// EncodeMultilevelKey: it rebuilds the request of mode whose key is
// raw, the body of a peer-forwarded request. It accepts exactly the
// byte strings the encoders produce for mode, so every key it accepts
// re-encodes to itself, and rejects any other: a wrong length, another
// mode's byte, a family byte that names no family, a depth outside
// 1..MaxLevels, a non-zero byte past the payload, a flag byte other
// than 0 or 1, or a −0 field. It validates values where the JSON
// decoders do: a multilevel request's params here, a single-level
// request's costs and rates when it is planned.
func decodePlanKey(raw []byte, mode Mode) (planRequest, error) {
	q := planRequest{mode: mode}
	if len(raw) != KeySize {
		return q, fmt.Errorf("bad key: %d bytes, want %d", len(raw), KeySize)
	}
	if Mode(raw[0]) != mode {
		return q, fmt.Errorf("bad key: mode byte %d, want %d (%v)", raw[0], byte(mode), mode)
	}
	d := keyDecoder{off: 2}
	if mode != ModePlanMultilevel {
		q.kind = core.Kind(raw[1])
		if !q.kind.Valid() {
			return q, fmt.Errorf("bad key: family byte %d", raw[1])
		}
		for _, f := range [singleLevelFloats]*float64{
			&q.costs.DiskCkpt, &q.costs.MemCkpt, &q.costs.DiskRec, &q.costs.MemRec,
			&q.costs.GuarVer, &q.costs.PartVer, &q.costs.Recall,
			&q.rates.FailStop, &q.rates.Silent,
		} {
			*f = d.float(raw)
		}
		d.padding(raw, KeySize)
		return q, d.err
	}
	depth := int(raw[1])
	if depth < 1 || depth > multilevel.MaxLevels {
		return q, fmt.Errorf("bad key: depth %d, need 1..%d", depth, multilevel.MaxLevels)
	}
	p := &q.params
	p.Levels = make([]multilevel.Level, depth)
	for i := range p.Levels {
		l := &p.Levels[i]
		l.Ckpt, l.Rec, l.Share = d.float(raw), d.float(raw), d.float(raw)
	}
	d.padding(raw, 2+24*multilevel.MaxLevels)
	for _, f := range [...]*float64{&p.GuarVer, &p.PartVer, &p.Recall, &p.Rates.FailStop, &p.Rates.Silent} {
		*f = d.float(raw)
	}
	switch flag := raw[KeySize-1]; {
	case d.err != nil:
		return q, d.err
	case flag > 1:
		return q, fmt.Errorf("bad key: flag byte %d", flag)
	default:
		p.InteriorGuaranteed = flag == 1
	}
	return q, p.Validate()
}

// keyDecoder reads a key's fixed-width fields in order, keeping the
// first error. It does not hold the key: an error built from a struct
// holding it would make every caller's key escape to the heap.
type keyDecoder struct {
	off int
	err error
}

// float reads the next field of raw, rejecting the −0 bit pattern,
// which putFloat never writes.
func (d *keyDecoder) float(raw []byte) float64 {
	bits := binary.BigEndian.Uint64(raw[d.off:])
	if bits == negativeZero && d.err == nil {
		d.err = fmt.Errorf("bad key: -0 at byte %d", d.off)
	}
	d.off += 8
	return math.Float64frombits(bits)
}

// padding requires the bytes of raw up to end to be zero and moves
// past them.
func (d *keyDecoder) padding(raw []byte, end int) {
	for i := d.off; i < end && d.err == nil; i++ {
		if raw[i] != 0 {
			d.err = fmt.Errorf("bad key: non-zero padding at byte %d", i)
		}
	}
	d.off = end
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
