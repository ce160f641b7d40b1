// Package core defines the computational-pattern model of the paper
// (Section 2): the resilience cost parameters, the two error rates, the
// six pattern families of Table 1, and the pattern object
// P(W, n, α, m, ⟨β1..βn⟩) together with its flattening into an
// executable schedule of operations consumed by the simulator
// (internal/sim) and the runtime (internal/engine).
package core

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"respat/internal/xmath"
)

// Costs groups the resilience cost parameters, all in seconds.
// The notation follows Section 2.3 of the paper.
type Costs struct {
	DiskCkpt float64 // CD: disk (stable-storage) checkpoint
	MemCkpt  float64 // CM: in-memory checkpoint
	DiskRec  float64 // RD: disk recovery
	MemRec   float64 // RM: memory recovery
	GuarVer  float64 // V*: guaranteed verification (recall 1)
	PartVer  float64 // V:  partial verification
	Recall   float64 // r:  partial-verification recall, in (0, 1]
}

// Validate checks that all costs are finite and non-negative and the
// recall lies in (0, 1].
func (c Costs) Validate() error {
	check := func(name string, v float64) error {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: cost %s = %v, need finite >= 0", name, v)
		}
		return nil
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"CD", c.DiskCkpt}, {"CM", c.MemCkpt}, {"RD", c.DiskRec},
		{"RM", c.MemRec}, {"V*", c.GuarVer}, {"V", c.PartVer},
	} {
		if err := check(p.name, p.v); err != nil {
			return err
		}
	}
	if c.Recall <= 0 || c.Recall > 1 || math.IsNaN(c.Recall) {
		return fmt.Errorf("core: recall r = %v, need 0 < r <= 1", c.Recall)
	}
	return nil
}

// AccuracyToCost returns the accuracy-to-cost ratio of the partial
// verification, a = (r/(2-r)) / (V/(V*+CM)), the figure of merit of
// [Cavelan et al. 2015] quoted in Section 2.3. Higher is better; the
// guaranteed verification scores CM/V* + 1.
func (c Costs) AccuracyToCost() float64 {
	if c.PartVer == 0 {
		return math.Inf(1)
	}
	return (c.Recall / (2 - c.Recall)) / (c.PartVer / (c.GuarVer + c.MemCkpt))
}

// Rates holds the arrival rates of the two independent Poisson error
// processes (Section 2.1), in errors per second.
type Rates struct {
	FailStop float64 // λf
	Silent   float64 // λs
}

// Validate checks the rates are finite and non-negative.
func (r Rates) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{{"lambda_f", r.FailStop}, {"lambda_s", r.Silent}} {
		if p.v < 0 || math.IsNaN(p.v) || math.IsInf(p.v, 0) {
			return fmt.Errorf("core: rate %s = %v, need finite >= 0", p.name, p.v)
		}
	}
	return nil
}

// Total returns λ = λf + λs, the reciprocal of the platform MTBF
// accounting for both error sources.
func (r Rates) Total() float64 { return r.FailStop + r.Silent }

// MTBF returns the platform mean time between failures µ = 1/λ.
func (r Rates) MTBF() float64 {
	if t := r.Total(); t > 0 {
		return 1 / t
	}
	return math.Inf(1)
}

// Scale returns the rates multiplied component-wise by (ff, fs); it
// implements the error-rate sweeps of Section 6.4.
func (r Rates) Scale(ff, fs float64) Rates {
	return Rates{FailStop: r.FailStop * ff, Silent: r.Silent * fs}
}

// Kind enumerates the six pattern families of Table 1.
type Kind int

// The six families, ordered as in Table 1. The D subscript denotes the
// disk checkpoint closing every pattern, M intermediate memory
// checkpoints, V* intermediate guaranteed verifications, and V
// intermediate partial verifications.
const (
	PD Kind = iota
	PDVStar
	PDV
	PDM
	PDMVStar
	PDMV
	numKinds
)

// Kinds returns all six families in Table 1 order.
func Kinds() []Kind { return []Kind{PD, PDVStar, PDV, PDM, PDMVStar, PDMV} }

// Valid reports whether k is one of the six Table 1 families.
func (k Kind) Valid() bool { return k >= 0 && k < numKinds }

// String returns the paper's name for the family.
func (k Kind) String() string {
	switch k {
	case PD:
		return "PD"
	case PDVStar:
		return "PDV*"
	case PDV:
		return "PDV"
	case PDM:
		return "PDM"
	case PDMVStar:
		return "PDMV*"
	case PDMV:
		return "PDMV"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind converts a pattern-family name ("PDMV*", case-insensitive,
// "star" accepted for "*") back into a Kind.
func ParseKind(s string) (Kind, error) {
	norm := strings.ToUpper(strings.TrimSpace(s))
	norm = strings.ReplaceAll(norm, "STAR", "*")
	for _, k := range Kinds() {
		if k.String() == norm {
			return k, nil
		}
	}
	return 0, fmt.Errorf("core: unknown pattern kind %q", s)
}

// MultiSegment reports whether the family places memory checkpoints
// between disk checkpoints (n may exceed 1).
func (k Kind) MultiSegment() bool { return k == PDM || k == PDMVStar || k == PDMV }

// MultiChunk reports whether the family places verifications inside
// segments (m may exceed 1).
func (k Kind) MultiChunk() bool {
	return k == PDVStar || k == PDV || k == PDMVStar || k == PDMV
}

// PartialVerifs reports whether intermediate verifications are partial
// (recall r < 1 allowed) rather than guaranteed.
func (k Kind) PartialVerifs() bool { return k == PDV || k == PDMV }

// ErrInvalidPattern tags pattern-validation failures.
var ErrInvalidPattern = errors.New("core: invalid pattern")

// Pattern is the computational unit P(W, n, α, m, ⟨β1..βn⟩) of
// Section 2.3. Alpha holds the n segment fractions (Σα = 1); Beta[i]
// holds segment i's chunk fractions (Σ Beta[i] = 1, len(Beta[i]) = mi).
// Every segment implicitly ends with a guaranteed verification and a
// memory checkpoint; the pattern ends with a guaranteed verification, a
// memory checkpoint and a disk checkpoint. Interior chunk boundaries
// carry partial verifications.
type Pattern struct {
	W     float64
	Alpha []float64
	Beta  [][]float64
	// InteriorGuaranteed selects the verification placed at interior
	// chunk boundaries: guaranteed (families PDV*, PDMV*) when true,
	// partial (families PDV, PDMV) when false. Segment-final
	// verifications are always guaranteed.
	InteriorGuaranteed bool
}

// Layout builds the optimal interior layout of a family: n segments of
// equal size, m chunks per segment. For the partial families (PDV,
// PDMV) chunks follow the Theorem 3 sizes for recall r; for the
// guaranteed families (PDV*, PDMV*) chunks are equal and interior
// verifications are guaranteed. n is forced to 1 for single-segment
// families and m to 1 for single-chunk families.
func Layout(k Kind, w float64, n, m int, r float64) (Pattern, error) {
	if !k.MultiSegment() {
		n = 1
	}
	if !k.MultiChunk() {
		m = 1
	}
	rEff := r
	if !k.PartialVerifs() {
		rEff = 1
	}
	p, err := Uniform(w, n, m, rEff)
	if err != nil {
		return Pattern{}, err
	}
	p.InteriorGuaranteed = k.MultiChunk() && !k.PartialVerifs()
	return p, nil
}

// Uniform builds the pattern with n equal segments, each of m chunks
// sized by the closed-form β* of Theorem 3 for recall r (equal chunks
// when r = 1). This is the optimal interior layout of Theorem 4.
func Uniform(w float64, n, m int, r float64) (Pattern, error) {
	if n <= 0 || m <= 0 {
		return Pattern{}, fmt.Errorf("%w: n=%d m=%d", ErrInvalidPattern, n, m)
	}
	if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		return Pattern{}, fmt.Errorf("%w: W=%v", ErrInvalidPattern, w)
	}
	if r <= 0 || r > 1 || math.IsNaN(r) {
		return Pattern{}, fmt.Errorf("%w: recall=%v", ErrInvalidPattern, r)
	}
	alpha := make([]float64, n)
	for i := range alpha {
		alpha[i] = 1 / float64(n)
	}
	beta := make([][]float64, n)
	row := optimalChunks(m, r)
	for i := range beta {
		beta[i] = append([]float64(nil), row...)
	}
	return Pattern{W: w, Alpha: alpha, Beta: beta}, nil
}

// optimalChunks returns the Theorem 3 chunk fractions of a segment of
// m chunks as one row.
func optimalChunks(m int, r float64) []float64 {
	edge, inner := ChunkFractions(m, r)
	row := make([]float64, m)
	for j := range row {
		row[j] = inner
	}
	row[0] = edge
	row[m-1] = edge
	return row
}

// ChunkFractions returns the Theorem 3 chunk sizes of a segment of m
// chunks whose interior verifications have recall r: the first and
// last chunks each take edge = 1/((m-2)r+2) of the segment and every
// interior chunk inner = r/((m-2)r+2), so chunks are equal at r = 1.
// With m = 1 the single chunk is the whole segment (edge 1, inner 0).
func ChunkFractions(m int, r float64) (edge, inner float64) {
	if m <= 1 {
		return 1, 0
	}
	den := float64(m-2)*r + 2
	return 1 / den, r / den
}

// Fstar returns the minimised quadratic-form value
// f* = (1 + (2-r)/((m-2)r+2))/2 of Theorem 3, the share of a segment
// re-executed after a silent error when its chunks follow
// ChunkFractions; with r = 1 it reduces to (1 + 1/m)/2 and with m = 1
// to 1.
func Fstar(m int, r float64) float64 {
	if m <= 1 {
		return 1
	}
	return (1 + (2-r)/(float64(m-2)*r+2)) / 2
}

// N returns the number of segments.
func (p Pattern) N() int { return len(p.Alpha) }

// M returns the number of chunks in segment i.
func (p Pattern) M(i int) int { return len(p.Beta[i]) }

// SegmentWork returns wi = αi·W.
func (p Pattern) SegmentWork(i int) float64 { return p.Alpha[i] * p.W }

// ChunkWork returns wij = βij·αi·W.
func (p Pattern) ChunkWork(i, j int) float64 { return p.Beta[i][j] * p.Alpha[i] * p.W }

// Validate checks structural consistency: positive W, matching segment
// counts, positive fractions summing to one.
func (p Pattern) Validate() error {
	if p.W <= 0 || math.IsNaN(p.W) || math.IsInf(p.W, 0) {
		return fmt.Errorf("%w: W = %v", ErrInvalidPattern, p.W)
	}
	if len(p.Alpha) == 0 {
		return fmt.Errorf("%w: no segments", ErrInvalidPattern)
	}
	if len(p.Beta) != len(p.Alpha) {
		return fmt.Errorf("%w: %d alpha vs %d beta rows", ErrInvalidPattern, len(p.Alpha), len(p.Beta))
	}
	var sumA float64
	for i, a := range p.Alpha {
		if a <= 0 || math.IsNaN(a) {
			return fmt.Errorf("%w: alpha[%d] = %v", ErrInvalidPattern, i, a)
		}
		sumA += a
		if len(p.Beta[i]) == 0 {
			return fmt.Errorf("%w: segment %d has no chunks", ErrInvalidPattern, i)
		}
		var sumB float64
		for j, b := range p.Beta[i] {
			if b <= 0 || math.IsNaN(b) {
				return fmt.Errorf("%w: beta[%d][%d] = %v", ErrInvalidPattern, i, j, b)
			}
			sumB += b
		}
		if !xmath.Close(sumB, 1, 1e-9) {
			return fmt.Errorf("%w: beta[%d] sums to %v", ErrInvalidPattern, i, sumB)
		}
	}
	if !xmath.Close(sumA, 1, 1e-9) {
		return fmt.Errorf("%w: alpha sums to %v", ErrInvalidPattern, sumA)
	}
	return nil
}

// String renders the pattern compactly, e.g. "P(W=3600, n=2, m=[3 3])".
func (p Pattern) String() string {
	ms := make([]string, len(p.Beta))
	for i := range p.Beta {
		ms[i] = fmt.Sprintf("%d", len(p.Beta[i]))
	}
	return fmt.Sprintf("P(W=%.6g, n=%d, m=[%s])", p.W, p.N(), strings.Join(ms, " "))
}

// Op enumerates the primitive operations a pattern flattens into.
type Op int

// Operations in schedule order. Recovery operations never appear in a
// schedule; they are emitted dynamically by the executor on error.
const (
	OpChunk   Op = iota // computation chunk
	OpPartVer           // partial verification (interior chunk boundary)
	OpGuarVer           // guaranteed verification (segment end)
	OpMemCkpt           // memory checkpoint (segment end)
	OpDisk              // disk checkpoint (pattern end)
)

// String names the operation.
func (o Op) String() string {
	switch o {
	case OpChunk:
		return "chunk"
	case OpPartVer:
		return "partial-verif"
	case OpGuarVer:
		return "guaranteed-verif"
	case OpMemCkpt:
		return "mem-ckpt"
	case OpDisk:
		return "disk-ckpt"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Action is one step of an executable schedule.
type Action struct {
	Op      Op
	Segment int     // segment index (0-based)
	Chunk   int     // chunk index within segment, for OpChunk/OpPartVer
	Work    float64 // chunk duration for OpChunk, else 0 (cost from Costs)
}

// Schedule flattens the pattern into the ordered action list executed
// between two disk checkpoints: for each segment, its chunks separated
// by partial verifications, then the guaranteed verification and the
// memory checkpoint; the final action is the disk checkpoint.
func (p Pattern) Schedule() []Action {
	n := 1 // the disk checkpoint
	for i := range p.Beta {
		n += 2*len(p.Beta[i]) + 1 // chunks, verifications, memory checkpoint
	}
	out := make([]Action, 0, n)
	interior := OpPartVer
	if p.InteriorGuaranteed {
		interior = OpGuarVer
	}
	for i := range p.Alpha {
		m := len(p.Beta[i])
		for j := 0; j < m; j++ {
			out = append(out, Action{Op: OpChunk, Segment: i, Chunk: j, Work: p.ChunkWork(i, j)})
			if j < m-1 {
				out = append(out, Action{Op: interior, Segment: i, Chunk: j})
			}
		}
		out = append(out, Action{Op: OpGuarVer, Segment: i})
		out = append(out, Action{Op: OpMemCkpt, Segment: i})
	}
	out = append(out, Action{Op: OpDisk, Segment: len(p.Alpha) - 1})
	return out
}
