// Package plantable precomputes exact-model plans over a
// (λf, λs, C, R) grid so the serving layer can answer common
// configurations by multilinear interpolation instead of running the
// cold exact search (DESIGN.md §2.9). A table is built offline
// (cmd/plantable) or in-process (Build), carries a verified
// exactness-error bound, and is loaded read-only at daemon startup —
// lookups are pure arithmetic over shared slices and safe for
// concurrent use.
//
// The four axes cover the parameters operators actually sweep: the
// two error rates and the disk checkpoint/recovery costs. The
// remaining cost parameters (memory checkpoint, verifications,
// recall) are the table's fixed template; a request whose template
// differs, or whose coordinates fall outside the grid, misses the
// table and falls through to the ordinary cold-plan path — including
// the PR 8 admission gate — unchanged.
//
// Interpolation serves the W and overhead of the 16 surrounding grid
// corners multilinearly and the integer (n, m) from the nearest
// corner. Build validates the scheme against exact planning on a
// seeded in-grid sample: for each sample point it bounds both the
// suboptimality of the served plan (exact overhead of the
// interpolated layout vs the true optimum) and the prediction error
// of the interpolated overhead figure. The max observed error is
// recorded in the table and must not exceed the configured bound.
package plantable

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"sort"

	"respat/internal/analytic"
	"respat/internal/core"
	"respat/internal/optimize"
	"respat/internal/sched"
)

// Entry is the exact plan at one grid point.
type Entry struct {
	N        int     `json:"n"`
	M        int     `json:"m"`
	W        float64 `json:"w"`
	Overhead float64 `json:"overhead"`
}

// Answer is one interpolated lookup result.
type Answer struct {
	// N and M come from the grid corner nearest the query point.
	N, M int
	// W and Overhead are multilinear interpolations over the 16
	// surrounding corners.
	W, Overhead float64
}

// Table is a precomputed plan table over a (λf, λs, C, R) grid.
// Immutable after Build/Load; safe for concurrent Lookup.
type Table struct {
	// Kind is the pattern family every entry was planned for.
	Kind core.Kind
	// Base is the cost template shared by all grid points. Its
	// DiskCkpt and DiskRec fields are zero — those coordinates come
	// from the Ckpt and Rec axes.
	Base core.Costs
	// The axes, each strictly increasing. FailStop and Silent are
	// rates in errors/second; Ckpt and Rec are the disk checkpoint
	// and recovery costs in seconds.
	FailStop, Silent, Ckpt, Rec []float64
	// Entries holds the exact plan at each grid point in row-major
	// order: ((fi*len(Silent)+si)*len(Ckpt)+ci)*len(Rec)+ri.
	Entries []Entry
	// ErrBound is the relative-error tolerance the table was
	// validated against; SampleErr the max relative error observed on
	// the validation sample (always <= ErrBound for a built table).
	ErrBound  float64
	SampleErr float64
	// Seed and Samples record the validation draw for reproducibility.
	Seed    uint64
	Samples int
}

// BuildSpec configures Build.
type BuildSpec struct {
	Kind core.Kind
	// Base supplies the non-axis cost parameters (MemCkpt, MemRec,
	// GuarVer, PartVer, Recall); its DiskCkpt/DiskRec are ignored.
	Base core.Costs
	// The grid axes, strictly increasing, at least one point each.
	FailStop, Silent, Ckpt, Rec []float64
	// ErrBound is the maximum tolerated relative error (default 0.01).
	ErrBound float64
	// Samples is the validation sample size (default 32).
	Samples int
	// Seed drives the validation sample (default 1).
	Seed uint64
	// Workers bounds the parallel exact planning (default GOMAXPROCS,
	// via sched).
	Workers int
}

// tableJSON is the on-disk format (docs/api.md "Plan-table file
// format").
type tableJSON struct {
	Kind      string     `json:"kind"`
	Base      core.Costs `json:"base"`
	FailStop  []float64  `json:"failstop"`
	Silent    []float64  `json:"silent"`
	Ckpt      []float64  `json:"ckpt"`
	Rec       []float64  `json:"rec"`
	ErrBound  float64    `json:"errBound"`
	SampleErr float64    `json:"sampleErr"`
	Seed      uint64     `json:"seed"`
	Samples   int        `json:"samples"`
	Entries   []Entry    `json:"entries"`
}

// checkAxis validates one axis: non-empty, finite, non-negative,
// strictly increasing.
func checkAxis(name string, axis []float64) error {
	if len(axis) == 0 {
		return fmt.Errorf("plantable: axis %s is empty", name)
	}
	for i, v := range axis {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return fmt.Errorf("plantable: axis %s[%d] = %v, need finite >= 0", name, i, v)
		}
		if i > 0 && v <= axis[i-1] {
			return fmt.Errorf("plantable: axis %s not strictly increasing at index %d (%v <= %v)",
				name, i, v, axis[i-1])
		}
	}
	return nil
}

// Validate checks the table's structural invariants (axes, entry
// count, bounds). Load calls it; Build guarantees it.
func (t *Table) Validate() error {
	if !t.Kind.Valid() {
		return fmt.Errorf("plantable: invalid pattern kind %d", int(t.Kind))
	}
	for _, ax := range []struct {
		name string
		vals []float64
	}{
		{"failstop", t.FailStop}, {"silent", t.Silent},
		{"ckpt", t.Ckpt}, {"rec", t.Rec},
	} {
		if err := checkAxis(ax.name, ax.vals); err != nil {
			return err
		}
	}
	want := len(t.FailStop) * len(t.Silent) * len(t.Ckpt) * len(t.Rec)
	if len(t.Entries) != want {
		return fmt.Errorf("plantable: %d entries for a %dx%dx%dx%d grid, want %d",
			len(t.Entries), len(t.FailStop), len(t.Silent), len(t.Ckpt), len(t.Rec), want)
	}
	if t.ErrBound <= 0 || math.IsNaN(t.ErrBound) {
		return fmt.Errorf("plantable: error bound %v, need > 0", t.ErrBound)
	}
	if t.SampleErr > t.ErrBound {
		return fmt.Errorf("plantable: sample error %v exceeds bound %v", t.SampleErr, t.ErrBound)
	}
	for i, e := range t.Entries {
		if e.N < 1 || e.M < 1 || e.W <= 0 || math.IsNaN(e.W) || math.IsNaN(e.Overhead) {
			return fmt.Errorf("plantable: entry %d invalid: %+v", i, e)
		}
	}
	return nil
}

// index flattens grid coordinates into Entries.
func (t *Table) index(fi, si, ci, ri int) int {
	return ((fi*len(t.Silent)+si)*len(t.Ckpt)+ci)*len(t.Rec) + ri
}

// locate finds x on axis: the lower bracket index and the fractional
// weight toward the upper bracket. ok is false outside [min, max].
// A single-point axis matches only its exact value.
func locate(axis []float64, x float64) (i int, w float64, ok bool) {
	n := len(axis)
	if math.IsNaN(x) || x < axis[0] || x > axis[n-1] {
		return 0, 0, false
	}
	if n == 1 {
		return 0, 0, true // x == axis[0] by the bounds check
	}
	j := sort.SearchFloat64s(axis, x)
	if j < n && axis[j] == x {
		if j == n-1 {
			return n - 2, 1, true
		}
		return j, 0, true
	}
	i = j - 1
	return i, (x - axis[i]) / (axis[i+1] - axis[i]), true
}

// Lookup answers (kind, c, r) from the table: multilinear W/overhead
// over the 16 surrounding corners, (n, m) from the nearest corner.
// ok is false when the family differs, the cost template (the non-axis
// cost fields) differs, or any coordinate is out of grid — callers
// then fall through to the ordinary cold-plan path.
func (t *Table) Lookup(kind core.Kind, c core.Costs, r core.Rates) (Answer, bool) {
	if kind != t.Kind {
		return Answer{}, false
	}
	if c.MemCkpt != t.Base.MemCkpt || c.MemRec != t.Base.MemRec ||
		c.GuarVer != t.Base.GuarVer || c.PartVer != t.Base.PartVer ||
		c.Recall != t.Base.Recall {
		return Answer{}, false
	}
	fi, fw, ok := locate(t.FailStop, r.FailStop)
	if !ok {
		return Answer{}, false
	}
	si, sw, ok := locate(t.Silent, r.Silent)
	if !ok {
		return Answer{}, false
	}
	ci, cw, ok := locate(t.Ckpt, c.DiskCkpt)
	if !ok {
		return Answer{}, false
	}
	ri, rw, ok := locate(t.Rec, c.DiskRec)
	if !ok {
		return Answer{}, false
	}
	idx := [4]int{fi, si, ci, ri}
	wts := [4]float64{fw, sw, cw, rw}
	lens := [4]int{len(t.FailStop), len(t.Silent), len(t.Ckpt), len(t.Rec)}

	var ans Answer
	for corner := 0; corner < 16; corner++ {
		weight := 1.0
		var at [4]int
		for d := 0; d < 4; d++ {
			if corner&(1<<d) != 0 {
				weight *= wts[d]
				at[d] = idx[d] + 1
				if at[d] >= lens[d] {
					at[d] = lens[d] - 1 // single-point axis; weight is 0
				}
			} else {
				weight *= 1 - wts[d]
				at[d] = idx[d]
			}
		}
		if weight == 0 {
			continue
		}
		e := t.Entries[t.index(at[0], at[1], at[2], at[3])]
		ans.W += weight * e.W
		ans.Overhead += weight * e.Overhead
	}
	// Nearest corner supplies the integer layout.
	var near [4]int
	for d := 0; d < 4; d++ {
		near[d] = idx[d]
		if wts[d] >= 0.5 {
			near[d]++
			if near[d] >= lens[d] {
				near[d] = lens[d] - 1
			}
		}
	}
	ne := t.Entries[t.index(near[0], near[1], near[2], near[3])]
	ans.N, ans.M = ne.N, ne.M
	return ans, true
}

// Build computes the exact plan at every grid point (in parallel) and
// validates the interpolation error on a seeded in-grid sample,
// failing if it exceeds the bound.
func Build(spec BuildSpec) (*Table, error) {
	if !spec.Kind.Valid() {
		return nil, fmt.Errorf("plantable: invalid pattern kind %d", int(spec.Kind))
	}
	base := spec.Base
	base.DiskCkpt, base.DiskRec = 0, 0
	if spec.ErrBound == 0 {
		spec.ErrBound = 0.01
	}
	if spec.Samples == 0 {
		spec.Samples = 32
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	t := &Table{
		Kind:     spec.Kind,
		Base:     base,
		FailStop: append([]float64(nil), spec.FailStop...),
		Silent:   append([]float64(nil), spec.Silent...),
		Ckpt:     append([]float64(nil), spec.Ckpt...),
		Rec:      append([]float64(nil), spec.Rec...),
		ErrBound: spec.ErrBound,
		Seed:     spec.Seed,
		Samples:  spec.Samples,
	}
	for _, ax := range []struct {
		name string
		vals []float64
	}{
		{"failstop", t.FailStop}, {"silent", t.Silent},
		{"ckpt", t.Ckpt}, {"rec", t.Rec},
	} {
		if err := checkAxis(ax.name, ax.vals); err != nil {
			return nil, err
		}
	}
	cells := len(t.FailStop) * len(t.Silent) * len(t.Ckpt) * len(t.Rec)
	coords := make([][4]int, 0, cells)
	for fi := range t.FailStop {
		for si := range t.Silent {
			for ci := range t.Ckpt {
				for ri := range t.Rec {
					coords = append(coords, [4]int{fi, si, ci, ri})
				}
			}
		}
	}
	entries, err := sched.Map(coords, spec.Workers, func(_ int, at [4]int) (Entry, error) {
		costs, rates := t.pointConfig(at[0], at[1], at[2], at[3])
		plan, err := optimize.Exact(t.Kind, costs, rates)
		if err != nil {
			return Entry{}, fmt.Errorf("plantable: grid point (λf=%v, λs=%v, C=%v, R=%v): %w",
				rates.FailStop, rates.Silent, costs.DiskCkpt, costs.DiskRec, err)
		}
		return Entry{N: plan.N, M: plan.M, W: plan.W, Overhead: plan.Overhead}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Entries = entries
	maxErr, err := t.CheckError(spec.Samples, spec.Seed)
	if err != nil {
		return nil, err
	}
	t.SampleErr = maxErr
	if maxErr > t.ErrBound {
		return nil, fmt.Errorf("plantable: validation error %.4g exceeds bound %.4g "+
			"(densify the grid or relax the bound)", maxErr, t.ErrBound)
	}
	return t, nil
}

// pointConfig materialises the configuration of one grid point.
func (t *Table) pointConfig(fi, si, ci, ri int) (core.Costs, core.Rates) {
	costs := t.Base
	costs.DiskCkpt = t.Ckpt[ci]
	costs.DiskRec = t.Rec[ri]
	return costs, core.Rates{FailStop: t.FailStop[fi], Silent: t.Silent[si]}
}

// CheckError draws samples uniform in-grid points (seeded,
// reproducible) and returns the max relative error of the table's
// answers against exact planning. Two errors are bounded per point:
// the suboptimality of the served layout (exact overhead of the
// interpolated (n, m, W) vs the true optimum) and the prediction
// error of the interpolated overhead figure. Both are relative to the
// true optimal overhead.
func (t *Table) CheckError(samples int, seed uint64) (float64, error) {
	if samples <= 0 {
		return 0, nil
	}
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	draw := func(axis []float64) float64 {
		lo, hi := axis[0], axis[len(axis)-1]
		return lo + rng.Float64()*(hi-lo)
	}
	var maxErr float64
	for i := 0; i < samples; i++ {
		rates := core.Rates{FailStop: draw(t.FailStop), Silent: draw(t.Silent)}
		costs := t.Base
		costs.DiskCkpt = draw(t.Ckpt)
		costs.DiskRec = draw(t.Rec)
		ans, ok := t.Lookup(t.Kind, costs, rates)
		if !ok {
			return 0, fmt.Errorf("plantable: validation sample %d missed its own grid", i)
		}
		exact, err := optimize.Exact(t.Kind, costs, rates)
		if err != nil {
			return 0, fmt.Errorf("plantable: validation sample %d: %w", i, err)
		}
		ev, err := analytic.NewEvaluator(costs, rates)
		if err != nil {
			return 0, err
		}
		served, err := ev.EvalLayoutOverhead(t.Kind, ans.N, ans.M, ans.W)
		if err != nil {
			return 0, fmt.Errorf("plantable: validation sample %d: served layout: %w", i, err)
		}
		rel := math.Abs(served-exact.Overhead) / exact.Overhead
		if pred := math.Abs(ans.Overhead-served) / exact.Overhead; pred > rel {
			rel = pred
		}
		if rel > maxErr {
			maxErr = rel
		}
	}
	return maxErr, nil
}

// Save writes the table as JSON (docs/api.md "Plan-table file
// format"). The encoding is deterministic for a given table.
func (t *Table) Save(w io.Writer) error {
	b, err := json.MarshalIndent(tableJSON{
		Kind:      t.Kind.String(),
		Base:      t.Base,
		FailStop:  t.FailStop,
		Silent:    t.Silent,
		Ckpt:      t.Ckpt,
		Rec:       t.Rec,
		ErrBound:  t.ErrBound,
		SampleErr: t.SampleErr,
		Seed:      t.Seed,
		Samples:   t.Samples,
		Entries:   t.Entries,
	}, "", " ")
	if err != nil {
		return fmt.Errorf("plantable: marshal: %w", err)
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Load reads and validates a table written by Save.
func Load(r io.Reader) (*Table, error) {
	var dto tableJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&dto); err != nil {
		return nil, fmt.Errorf("plantable: decode: %w", err)
	}
	kind, err := core.ParseKind(dto.Kind)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Kind:      kind,
		Base:      dto.Base,
		FailStop:  dto.FailStop,
		Silent:    dto.Silent,
		Ckpt:      dto.Ckpt,
		Rec:       dto.Rec,
		ErrBound:  dto.ErrBound,
		SampleErr: dto.SampleErr,
		Seed:      dto.Seed,
		Samples:   dto.Samples,
		Entries:   dto.Entries,
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}

// LoadFile is Load over a file path.
func LoadFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("plantable: %w", err)
	}
	defer f.Close()
	t, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("plantable: %s: %w", path, err)
	}
	return t, nil
}

// AxisAround builds a symmetric axis of points geometrically spaced
// around center: center·span^(2i/(points-1) - 1) for i in
// [0, points). It is the convenient way to cover "the platform's
// rates, give or take a factor of span" (cmd/plantable uses it).
func AxisAround(center, span float64, points int) ([]float64, error) {
	if center <= 0 || span <= 1 || points < 1 {
		return nil, fmt.Errorf("plantable: axis center=%v span=%v points=%d, need center > 0, span > 1, points >= 1",
			center, span, points)
	}
	if points == 1 {
		return []float64{center}, nil
	}
	out := make([]float64, points)
	for i := range out {
		exp := 2*float64(i)/float64(points-1) - 1
		out[i] = center * math.Pow(span, exp)
	}
	return out, nil
}
