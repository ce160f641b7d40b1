// Package multilevel models resilience patterns with a hierarchy of
// checkpoint levels combined with the paper's silent-error
// verifications — the composition the Section 4.1 remark and the
// Section 7.1 related-work discussion contrast the single-level
// patterns against. A pattern of work W is split into n_1 level-1
// intervals; every level-l boundary writes checkpoints at levels 1..l
// (cheapest first), each level-1 interval carries m chunks separated
// by partial verifications and closed by a guaranteed verification, so
// no corrupted state ever commits. Fail-stop errors carry a level:
// with probability q_l an error destroys the state below level l and
// forces a recovery R_l from the most recent level-≥l checkpoint plus
// a replay of everything since; detected silent errors roll back to
// the nearest level-1 checkpoint.
//
// At L = 1 the model degenerates to the paper's single-level pattern
// family (package analytic's exact evaluator); at L = 2 with a zero
// silent-error rate it degenerates to the classic two-level fail-stop
// protocol of package twolevel. Both reductions are asserted by the
// equivalence tests in this package.
package multilevel

import (
	"fmt"
	"math"

	"respat/internal/core"
	"respat/internal/platform"
)

// MaxLevels caps the checkpoint hierarchy depth. Four levels cover the
// realistic storage stacks (memory / node-local / burst-buffer /
// parallel file system) and give the service layer a fixed-width
// canonical cache key.
const MaxLevels = 4

// Level describes one checkpoint level of the hierarchy.
type Level struct {
	// Ckpt is C_l, the cost of writing a level-l checkpoint (s).
	Ckpt float64
	// Rec is R_l, the cost of recovering from the level-l checkpoint
	// after a level-l fail-stop error, including the re-establishment
	// of the levels below it (s).
	Rec float64
	// Share is q_l, the probability that a fail-stop error is of level
	// l — it destroys the state of levels < l and is recoverable from
	// level l. Shares sum to 1 across the hierarchy.
	Share float64
}

// Params describes a multilevel-pattern platform: the checkpoint
// hierarchy, the verification costs of the paper's silent-error
// protocol, and the two error rates.
type Params struct {
	// Levels is the hierarchy, cheapest (level 1) first; 1 ≤ len ≤
	// MaxLevels.
	Levels []Level
	// GuarVer is V*, the guaranteed-verification cost closing every
	// level-1 interval (s).
	GuarVer float64
	// PartVer is V, the partial-verification cost at interior chunk
	// boundaries (s).
	PartVer float64
	// Recall is r, the partial-verification recall, in (0, 1].
	Recall float64
	// Rates are the fail-stop and silent error rates (/s).
	Rates core.Rates
	// InteriorGuaranteed replaces the interior partial verifications
	// with guaranteed ones (the *V*-style families): interior cost
	// GuarVer, recall 1.
	InteriorGuaranteed bool
}

// L returns the number of checkpoint levels.
func (p Params) L() int { return len(p.Levels) }

// costOK reports whether v is a finite non-negative cost. Keeping the
// check boolean (errors are built only on failure) keeps Validate
// allocation-free on the success path — it runs on every service
// cache hit, which carries a 0 allocs/op contract.
func costOK(v float64) bool {
	return v >= 0 && !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Validate checks the parameters.
func (p Params) Validate() error {
	if len(p.Levels) < 1 || len(p.Levels) > MaxLevels {
		return fmt.Errorf("multilevel: %d levels, need 1..%d", len(p.Levels), MaxLevels)
	}
	var shares float64
	for i, l := range p.Levels {
		if !costOK(l.Ckpt) {
			return fmt.Errorf("multilevel: C_%d = %v, need finite >= 0", i+1, l.Ckpt)
		}
		if !costOK(l.Rec) {
			return fmt.Errorf("multilevel: R_%d = %v, need finite >= 0", i+1, l.Rec)
		}
		if l.Share < 0 || l.Share > 1 || math.IsNaN(l.Share) {
			return fmt.Errorf("multilevel: share q_%d = %v, need in [0,1]", i+1, l.Share)
		}
		shares += l.Share
	}
	if math.Abs(shares-1) > 1e-9 {
		return fmt.Errorf("multilevel: level shares sum to %v, need 1", shares)
	}
	if !costOK(p.GuarVer) {
		return fmt.Errorf("multilevel: V* = %v, need finite >= 0", p.GuarVer)
	}
	if !costOK(p.PartVer) {
		return fmt.Errorf("multilevel: V = %v, need finite >= 0", p.PartVer)
	}
	if p.Recall <= 0 || p.Recall > 1 || math.IsNaN(p.Recall) {
		return fmt.Errorf("multilevel: recall r = %v, need 0 < r <= 1", p.Recall)
	}
	return p.Rates.Validate()
}

// interiorVerif returns the cost and recall of one interior
// verification under the family flag.
func (p Params) interiorVerif() (cost, recall float64) {
	if p.InteriorGuaranteed {
		return p.GuarVer, 1
	}
	return p.PartVer, p.Recall
}

// meanRec returns Σ q_l·R_l, the expected fail-stop recovery cost.
func (p Params) meanRec() float64 {
	var r float64
	for _, l := range p.Levels {
		r += l.Share * l.Rec
	}
	return r
}

// Spec is one concrete multilevel pattern: work length, per-level
// interval counts and the chunk count.
type Spec struct {
	// W is the pattern work length (s).
	W float64
	// Counts holds n_1..n_L, the number of level-l checkpoint intervals
	// per pattern. Counts are nested: n_L = 1 (the pattern is the
	// level-L interval) and each n_l is a multiple of n_{l+1}, so every
	// level-(l+1) interval splits into n_l/n_{l+1} equal level-l
	// intervals.
	Counts []int
	// M is the number of chunks per level-1 interval, separated by
	// interior verifications and sized by the Theorem 3 fractions.
	M int
}

// UniformSpec assembles a Spec from branching factors: branch[l-1] is
// the number of level-l intervals inside one level-(l+1) interval, for
// l = 1..L-1 (the pattern itself is the single level-L interval).
func UniformSpec(w float64, branch []int, m int) Spec {
	counts := make([]int, len(branch)+1)
	counts[len(branch)] = 1
	for l := len(branch) - 1; l >= 0; l-- {
		counts[l] = counts[l+1] * branch[l]
	}
	return Spec{W: w, Counts: counts, M: m}
}

// Validate checks the spec against a hierarchy depth of levels.
func (s Spec) Validate(levels int) error {
	if s.W <= 0 || math.IsNaN(s.W) || math.IsInf(s.W, 0) {
		return fmt.Errorf("multilevel: W = %v, need finite > 0", s.W)
	}
	if len(s.Counts) != levels {
		return fmt.Errorf("multilevel: %d counts for %d levels", len(s.Counts), levels)
	}
	if s.Counts[levels-1] != 1 {
		return fmt.Errorf("multilevel: n_%d = %d, the pattern is one level-%d interval", levels, s.Counts[levels-1], levels)
	}
	for l := 0; l < levels; l++ {
		if s.Counts[l] < 1 {
			return fmt.Errorf("multilevel: n_%d = %d, need >= 1", l+1, s.Counts[l])
		}
		if l+1 < levels && s.Counts[l]%s.Counts[l+1] != 0 {
			return fmt.Errorf("multilevel: n_%d = %d not a multiple of n_%d = %d",
				l+1, s.Counts[l], l+2, s.Counts[l+1])
		}
	}
	if s.M < 1 {
		return fmt.Errorf("multilevel: m = %d, need >= 1", s.M)
	}
	return nil
}

// String renders the spec compactly, e.g. "ML(W=3600, n=[6 2 1], m=3)".
func (s Spec) String() string {
	return fmt.Sprintf("ML(W=%.6g, n=%v, m=%d)", s.W, s.Counts, s.M)
}

// strides returns, per level, n_1/n_l: the number of level-1 intervals
// between consecutive level-l boundaries.
func (s Spec) strides() []int {
	out := make([]int, len(s.Counts))
	for l := range s.Counts {
		out[l] = s.Counts[0] / s.Counts[l]
	}
	return out
}

// boundaryLevel returns the highest checkpoint level written at the
// boundary closing level-1 interval t (0-based), given the per-level
// strides: the largest l whose stride divides t+1.
func boundaryLevel(strides []int, t int) int {
	level := 1
	for l := 1; l < len(strides); l++ {
		if (t+1)%strides[l] == 0 {
			level = l + 1
		}
	}
	return level
}

// FirstOrder returns the first-order overhead decomposition of the
// spec's layout: the error-free overhead oef per pattern and the
// re-executed-work fraction orw, generalising the paper's Definition 1
// to L levels (a level-l error loses on average half a level-l
// interval, W/(2·n_l)). The first-order optimal period is
// W* ≈ sqrt(oef/orw); the planner uses it to bracket its search.
func (p Params) FirstOrder(counts []int, m int) (oef, orw float64) {
	v, recall := p.interiorVerif()
	n1 := float64(counts[0])
	oef = n1 * (float64(m-1)*v + p.GuarVer)
	for l, lev := range p.Levels {
		oef += float64(counts[l]) * lev.Ckpt
	}
	orw = core.Fstar(m, recall) * p.Rates.Silent / n1
	for l, lev := range p.Levels {
		orw += p.Rates.FailStop * lev.Share / (2 * float64(counts[l]))
	}
	return oef, orw
}

// FromPlatform derives a multilevel configuration with the given
// hierarchy depth from a Table 2 platform, extending the paper's
// Section 6.1 derivation rules:
//
//   - the cheapest level is the in-memory checkpoint (CM, RM), the most
//     expensive the disk checkpoint (CD, RD); interior levels
//     interpolate geometrically (e.g. a node-local SSD tier);
//   - recovering at level l re-establishes every level below it, so
//     R_l is the cumulative sum of the per-level restore costs;
//   - fail-stop levels follow a Di et al.-style locality split: half of
//     the errors that reach level l are contained there, q_l ∝ 2^{-l},
//     with the remainder folded into the top level;
//   - verification costs and rates carry over unchanged.
//
// With levels = 1 the single level is the disk checkpoint and every
// error (including a detected silent one) recovers from disk.
func FromPlatform(pl platform.Platform, levels int) (Params, error) {
	if levels < 1 || levels > MaxLevels {
		return Params{}, fmt.Errorf("multilevel: %d levels, need 1..%d", levels, MaxLevels)
	}
	if err := pl.Validate(); err != nil {
		return Params{}, err
	}
	c := pl.Costs
	out := Params{
		GuarVer: c.GuarVer,
		PartVer: c.PartVer,
		Recall:  c.Recall,
		Rates:   pl.Rates,
	}
	out.Levels = make([]Level, levels)
	var cumRec float64
	for l := 0; l < levels; l++ {
		// Geometric interpolation between (CM, RM) and (CD, RD);
		// levels = 1 pins the single level to the disk figures.
		frac := 1.0
		if levels > 1 {
			frac = float64(l) / float64(levels-1)
		}
		rec := interp(c.MemRec, c.DiskRec, frac)
		cumRec += rec
		out.Levels[l] = Level{Ckpt: interp(c.MemCkpt, c.DiskCkpt, frac), Rec: cumRec}
	}
	// Locality split q_l ∝ 2^{-l}, remainder to the top level.
	rest := 1.0
	for l := 0; l < levels-1; l++ {
		out.Levels[l].Share = rest / 2
		rest /= 2
	}
	out.Levels[levels-1].Share = rest
	return out, nil
}

// Layout is the executable flattening of a spec under a parameter set,
// shared by the Monte-Carlo executor (internal/sim) and the runtime:
// concrete chunk durations, the interior-verification contract and the
// per-level boundary strides.
type Layout struct {
	Spec Spec
	// Chunks holds the m chunk durations of one level-1 interval
	// (Theorem 3 fractions scaled by W/n_1).
	Chunks []float64
	// InteriorCost and InteriorRecall describe one interior
	// verification (V with recall r, or V* with recall 1 for the
	// guaranteed-interior family).
	InteriorCost   float64
	InteriorRecall float64
	// Strides holds n_1/n_l per level: the number of level-1 intervals
	// between consecutive level-l boundaries.
	Strides []int
}

// Layout validates s against p and flattens it.
func (p Params) Layout(s Spec) (Layout, error) {
	if err := p.Validate(); err != nil {
		return Layout{}, err
	}
	if err := s.Validate(len(p.Levels)); err != nil {
		return Layout{}, err
	}
	cost, recall := p.interiorVerif()
	w1 := s.W / float64(s.Counts[0])
	edge, inner := core.ChunkFractions(s.M, recall)
	chunks := make([]float64, s.M)
	for j := range chunks {
		chunks[j] = inner * w1
	}
	chunks[0] = edge * w1
	chunks[s.M-1] = edge * w1
	return Layout{
		Spec:           s,
		Chunks:         chunks,
		InteriorCost:   cost,
		InteriorRecall: recall,
		Strides:        s.strides(),
	}, nil
}

// BoundaryLevel returns the highest checkpoint level written at the
// boundary closing level-1 interval t (0-based, 1-based level).
func (l *Layout) BoundaryLevel(t int) int { return boundaryLevel(l.Strides, t) }

// RollbackTo returns the level-1 interval index execution resumes from
// after a level-`level` fail-stop error during interval t: the most
// recent level-≥level boundary.
func (l *Layout) RollbackTo(level, t int) int {
	stride := l.Strides[level-1]
	return t - t%stride
}

// PickLevel maps one uniform draw u in [0,1) to the 1-based level of a
// fail-stop error according to the level shares.
func (p Params) PickLevel(u float64) int {
	var cum float64
	for l, lev := range p.Levels {
		cum += lev.Share
		if u < cum {
			return l + 1
		}
	}
	return len(p.Levels) // guard against share rounding
}

// interp interpolates between the memory and disk cost endpoints:
// geometrically when both are positive (cost ratios across storage
// tiers are multiplicative), linearly when an endpoint is zero.
func interp(mem, disk, frac float64) float64 {
	if mem <= 0 || disk <= 0 {
		return mem + (disk-mem)*frac
	}
	return mem * math.Pow(disk/mem, frac)
}
