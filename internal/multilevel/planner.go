package multilevel

import (
	"context"
	"fmt"
	"math"

	"respat/internal/xmath"
)

// MaxBranch caps the per-level branching factor and the chunk count
// considered by the first-order seeding stage, mirroring
// analytic.MaxSplit: it is only reached in degenerate parameter
// regimes.
const MaxBranch = 4096

// maxEnumCandidates bounds the level-vector box the planner will
// enumerate for the pruned search. Realistic platforms yield
// a few hundred candidates; when the first-order caps blow the box
// past this bound (degenerate near-zero-rate regimes) the planner
// falls back to the sequential nested convex search, which is
// logarithmic in the caps.
const maxEnumCandidates = 32768

// pruneSlack is the safety factor of the first-order pruning bound: a
// level-vector candidate is skipped when its W- and m-minimised
// first-order overhead 2·sqrt(oef·orw) exceeds pruneSlack times the
// seed vector's first-order overhead. The comparison is first-order
// against first-order, so the model's absolute error cancels and only
// its ranking error matters: the exact optimum is lost only if the
// first-order model misranks two level vectors by more than 5%, while
// on the Table 2 grid the first-order and exact argmins coincide
// outright (ranking error well under 1%). Parity with the unpruned
// brute-force search is asserted by TestPlannerGoldenParity.
const pruneSlack = 1.05

// refineMargin bounds the screening stage's m-misattribution: a
// survivor is screened with a single coarse W search at the
// incumbent's chunk count m*, and receives the full m search only when
// that screen lands within refineMargin of the best screen. The margin
// must dominate how much a candidate can gain by re-optimising m away
// from the incumbent's — the exact overhead is nearly flat in m around
// m* (well under 1% across the Table 2 grid) — plus the coarse
// search's own error (quadratic in its W error near the minimum).
const refineMargin = 0.05

// Plan is the outcome of optimising a multilevel pattern for a
// configuration.
type Plan struct {
	// Spec is the optimal pattern: W*, the per-level interval counts
	// n_1..n_L and the chunk count m*.
	Spec Spec
	// Overhead is the exact expected overhead E(P)/W - 1 at the
	// optimum.
	Overhead float64
}

// String renders the plan compactly.
func (p Plan) String() string {
	return fmt.Sprintf("multilevel: W*=%.6gs n*=%v m*=%d H*=%.4f", p.Spec.W, p.Spec.Counts, p.Spec.M, p.Overhead)
}

// SearchStats describes one planner run, so perf claims are observable
// without a profiler (cmd/respat logs them per cell).
type SearchStats struct {
	// SeedProbes is the number of first-order oef·orw evaluations the
	// seeding stage ran to place the search box.
	SeedProbes int
	// Candidates is the number of level-vector candidates in the
	// enumerated search box (the first-order caps).
	Candidates int
	// Pruned is how many candidates the first-order lower bound
	// skipped without an exact evaluation.
	Pruned int
	// BoundProbes is the number of first-order oef·orw evaluations the
	// bound-and-prune pass ran (the seed's own bound included): each
	// candidate's m descent starts at the previous candidate's argmin,
	// a few probes per candidate.
	BoundProbes int
	// Screened is how many candidates were placed by a single coarse
	// exact W search at the incumbent's chunk count.
	Screened int
	// Evaluated is how many candidates ran the full exact m/W search
	// (the incumbent plus the screening survivors within refineMargin).
	Evaluated int
	// Leaves is the total number of exact (n-vector, m) leaves searched
	// over W: the Screened coarse searches plus the full-precision
	// searches of the Evaluated candidates.
	Leaves int
	// LeafProbes is the number of exact evaluator probes the
	// full-precision leaf W searches ran (screening excluded): ~14 per
	// leaf from the first-order period.
	LeafProbes int
	// Fallback reports that the box exceeded maxEnumCandidates and the
	// sequential nested convex search ran instead.
	Fallback bool
}

// wEval is one (level-vector, m) leaf: the W-optimised overhead and
// the evaluator probes its W search ran. A candidate's m search
// returns its best leaf with leaves and probes summed over the leaves
// it searched.
type wEval struct {
	w, h   float64
	m      int
	leaves int
	probes int
	err    error
}

// leafSearch minimises one (counts, m) leaf's exact overhead over W:
// optimizeW, or in tests the golden-section oracle it replaced.
type leafSearch func(ev *Evaluator, counts []int, m int) wEval

// Planner is a search context bound to one Params configuration: it
// owns an Evaluator, the per-candidate m-search memo and the
// enumeration scratch. A Planner may plan again (a repeat allocates
// almost nothing), but no production caller plans twice on one: each
// builds a Planner per plan. A Plan call runs on the calling
// goroutine, so callers that plan many configurations parallelise
// across planners (the service's ColdWorkers, the harness's
// CampaignWorkers). A Planner is not safe for concurrent use.
type Planner struct {
	ev    *Evaluator
	leaf  leafSearch
	stats SearchStats
	// memo holds one candidate's exact m-search leaves, keyed by m
	// (cleared, not reallocated, between candidates).
	memo map[int]wEval
	// scratch, reused across Plan calls
	branch  []int
	counts  []int
	seed    []int
	caps    []int
	surv    []int
	refine  []int
	screenH []float64
}

// NewPlanner validates p once and returns a planner bound to it.
// Production callers plan once on each planner they build.
func NewPlanner(p Params) (*Planner, error) {
	ev, err := NewEvaluator(p)
	if err != nil {
		return nil, err
	}
	L := len(ev.Params().Levels)
	return &Planner{
		ev:     ev,
		leaf:   optimizeW,
		memo:   make(map[int]wEval),
		branch: make([]int, L-1),
		counts: make([]int, L),
		seed:   make([]int, L-1),
		caps:   make([]int, L-1),
	}, nil
}

// Stats returns the search statistics of the most recent Plan call.
func (pl *Planner) Stats() SearchStats { return pl.stats }

// Optimize finds the multilevel plan minimising the exact expected
// overhead over the pattern length W, the per-level branching factors
// k_1..k_{L-1} (n_l = k_l·n_{l+1}) and the chunk count m. It is
// NewPlanner + Plan on a planner used once, as every production caller
// uses one; a caller that wants SearchStats keeps the Planner.
func Optimize(p Params) (Plan, error) {
	pl, err := NewPlanner(p)
	if err != nil {
		return Plan{}, err
	}
	return pl.Plan()
}

// FirstOrderPlan returns the Definition 1 first-order optimum — the
// same (level-vector, m, W) seed the exact search starts from, with W
// = sqrt(oef/orw) — without running any exact evaluation. Unlike the
// Plans of Optimize, the returned Overhead is the first-order
// prediction 2·sqrt(oef·orw), not the exact-model overhead. It is the
// graceful-degradation fallback of the planning service: O(L·log²)
// closed-form arithmetic, deterministic, allocation-light, never
// admission-gated.
func FirstOrderPlan(p Params) (Plan, error) {
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	if p.Rates.Total() == 0 {
		return Plan{}, fmt.Errorf("multilevel: both error rates are zero; no finite optimal pattern")
	}
	L := p.L()
	seed := make([]int, L-1)
	counts := make([]int, L)
	m, _ := firstOrderSeed(p, seed, counts)
	fillCounts(counts, seed)
	oef, orw := p.FirstOrder(counts, m)
	w := xmath.SqrtRatio(oef, orw)
	if math.IsInf(w, 1) || math.IsNaN(w) || w <= 0 {
		return Plan{}, fmt.Errorf("multilevel: no finite first-order optimum for n=%v m=%d", counts, m)
	}
	return Plan{Spec: UniformSpec(w, seed, m), Overhead: 2 * math.Sqrt(oef*orw)}, nil
}

// Plan runs the pruned search:
//
//  1. a first-order stage minimises the oef·orw product of Definition
//     1 (no renewal recursion; a few hundred O(L) probes, see
//     firstOrderSeed) to locate the search region and caps the
//     per-dimension box, exactly as the nested search did;
//  2. the seed vector is evaluated exactly to obtain the incumbent —
//     its overhead, its optimal chunk count m* and the screening
//     reference;
//  3. every other level-vector candidate in the box is bounded by its
//     m-minimised first-order overhead 2·sqrt(oef·orw); candidates
//     whose bound exceeds pruneSlack × the seed's own first-order
//     overhead are pruned without touching the exact model;
//  4. the survivors are screened in index order: one coarse exact W
//     search at the incumbent's m*, enough to rank level vectors (the
//     exact overhead is nearly flat in m near m*);
//  5. survivors whose screen lands within refineMargin of the best
//     screen run the full m/W search — the same leaves the nested
//     convex search would have run — in index order, and strict-less
//     tie-breaking picks the winner.
//
// Every step runs on the calling goroutine. The screen and refine sets
// are pure functions of deterministic values and the reduction is an
// index-order scan, so the returned Plan is a pure function of the
// configuration. Bit-parity with the sequential nested convex search
// of the pre-pruning planner is asserted across the Table 2 grid by
// TestPlannerGoldenParity.
func (pl *Planner) Plan() (Plan, error) {
	return pl.PlanCtx(context.Background())
}

// PlanCtx is Plan under a cancellation context: when ctx is cancelled
// or expires the search aborts — within one candidate evaluation —
// and returns ctx's error, never a partial plan. Cancellation cannot
// change the bits of a successful result: a cancelled search returns
// only the error (there is a final ctx check before the plan is
// assembled), so every Plan that is returned ran the full
// deterministic reduction.
func (pl *Planner) PlanCtx(ctx context.Context) (Plan, error) {
	p := pl.ev.Params()
	pl.stats = SearchStats{}
	if err := ctx.Err(); err != nil {
		return Plan{}, err
	}
	if p.Rates.Total() == 0 {
		return Plan{}, fmt.Errorf("multilevel: both error rates are zero; no finite optimal pattern")
	}
	seedM, probes := firstOrderSeed(p, pl.seed, pl.counts)
	pl.stats.SeedProbes = probes

	// Exact-stage caps around the first-order seed.
	box := 1
	for d := range pl.caps {
		pl.caps[d] = min(3*pl.seed[d]+4, MaxBranch)
		if box > maxEnumCandidates/pl.caps[d] {
			box = maxEnumCandidates + 1 // overflow-safe saturation
			break
		}
		box *= pl.caps[d]
	}
	maxM := min(3*seedM+4, MaxBranch)
	if p.Rates.Silent == 0 {
		// Without silent errors extra verifications only add cost (and
		// tie exactly when V = 0), so pin the chunk count.
		maxM = 1
	}
	if box > maxEnumCandidates {
		pl.stats.Fallback = true
		pl.stats.Candidates = box
		return optimizeNested(ctx, pl.ev, pl.leaf, maxM, pl.caps, &pl.stats)
	}
	pl.stats.Candidates = box

	// Incumbent: the seed vector, evaluated exactly before any pruning
	// decision, so the screen/refine thresholds are pure functions of
	// the configuration.
	seedIdx := pl.candidateIndex(pl.seed)
	incumbent := pl.evalCandidate(pl.seed, maxM, seedM)
	if incumbent.err != nil {
		return Plan{}, incumbent.err
	}
	pl.stats.Leaves += incumbent.leaves
	pl.stats.LeafProbes += incumbent.probes
	pl.stats.Evaluated++
	if math.IsInf(incumbent.h, 1) || math.IsNaN(incumbent.h) {
		// A diverging seed means the first-order model missed badly;
		// screening against it would be meaningless, so run the
		// exhaustive-by-convexity nested search instead.
		pl.stats.Fallback = true
		return optimizeNested(ctx, pl.ev, pl.leaf, maxM, pl.caps, &pl.stats)
	}

	// Bound-and-prune pass (O(L) per probe). First-order is compared
	// against first-order, so the model's absolute error cancels; only
	// a >5% ranking error could prune the exact optimum. Each
	// candidate's m descent starts at the previous candidate's argmin:
	// consecutive candidates differ in one branching factor, which
	// moves the argmin by a step or two, and the product is unimodal in
	// m, so the start changes the probe count, never the argmin.
	seedBound, startM, probes := firstOrderBound(p, pl.seed, pl.counts, maxM, seedM)
	pl.stats.BoundProbes = probes
	pl.surv = pl.surv[:0]
	for idx := 0; idx < box; idx++ {
		if idx == seedIdx {
			continue
		}
		pl.decode(idx, pl.branch)
		bound, m, probes := firstOrderBound(p, pl.branch, pl.counts, maxM, startM)
		pl.stats.BoundProbes += probes
		startM = m
		if bound > pruneSlack*seedBound {
			pl.stats.Pruned++
			continue
		}
		pl.surv = append(pl.surv, idx)
	}

	// Screening: place every survivor with one coarse W search at the
	// incumbent's m*. Screen failures park at +Inf (the candidate
	// simply never refines).
	pl.screenH = resize(pl.screenH, len(pl.surv))
	pl.stats.Screened = len(pl.surv)
	pl.stats.Leaves += len(pl.surv)
	for i, idx := range pl.surv {
		if err := ctx.Err(); err != nil {
			return Plan{}, err
		}
		pl.decode(idx, pl.branch)
		pl.screenH[i] = pl.screenCandidate(pl.branch, incumbent.m)
	}

	// Refine set: survivors within refineMargin of the best screen
	// (the incumbent's exact overhead is itself a screen value — a
	// candidate must at least approach it to earn the full m search).
	minScreen := incumbent.h
	for _, h := range pl.screenH {
		if h < minScreen {
			minScreen = h
		}
	}
	pl.refine = pl.refine[:0]
	for i, idx := range pl.surv {
		if pl.screenH[i] <= minScreen*(1+refineMargin) {
			pl.refine = append(pl.refine, idx)
		}
	}

	// Refinement: the full m/W search, identical leaves to the nested
	// convex search, reduced in ascending candidate index (refine is
	// built in index order) with strict less, so ties go to the
	// lexicographically-first candidate.
	pl.stats.Evaluated += len(pl.refine)
	bestIdx := seedIdx
	best := incumbent
	for _, idx := range pl.refine {
		if err := ctx.Err(); err != nil {
			return Plan{}, err
		}
		pl.decode(idx, pl.branch)
		e := pl.evalCandidate(pl.branch, maxM, incumbent.m)
		pl.stats.Leaves += e.leaves
		pl.stats.LeafProbes += e.probes
		if e.err != nil || math.IsNaN(e.h) {
			continue
		}
		if e.h < best.h || (e.h == best.h && idx < bestIdx) {
			best, bestIdx = e, idx
		}
	}
	if math.IsInf(best.h, 1) || math.IsNaN(best.h) {
		return Plan{}, fmt.Errorf("multilevel: optimisation diverged")
	}
	// Final cancellation check: a search cancelled inside a leaf may
	// have parked leaves at +Inf, so its reduction must never be
	// served as if it were the full search's.
	if err := ctx.Err(); err != nil {
		return Plan{}, err
	}
	pl.decode(bestIdx, pl.branch)
	return Plan{Spec: UniformSpec(best.w, pl.branch, best.m), Overhead: best.h}, nil
}

// candidateIndex maps a branch vector inside the caps box to its
// enumeration index (mixed radix, dimension 0 slowest).
func (pl *Planner) candidateIndex(branch []int) int {
	idx := 0
	for d, k := range branch {
		idx = idx*pl.caps[d] + (k - 1)
	}
	return idx
}

// decode is the inverse of candidateIndex.
func (pl *Planner) decode(idx int, branch []int) {
	for d := len(pl.caps) - 1; d >= 0; d-- {
		branch[d] = idx%pl.caps[d] + 1
		idx /= pl.caps[d]
	}
}

// evalCandidate runs the capped convex integer search over m for one
// level-vector candidate, descending from startM (the seed's or the
// incumbent's chunk count, which neighbouring candidates share to
// within a step or two), with the leaf W search at every m. Leaves
// are memoized per candidate so the descent's final lookup never
// recomputes a leaf.
func (pl *Planner) evalCandidate(branch []int, maxM, startM int) wEval {
	fillCounts(pl.counts, branch)
	clear(pl.memo)
	probes := 0
	at := func(m int) wEval {
		if e, ok := pl.memo[m]; ok {
			return e
		}
		e := pl.leaf(pl.ev, pl.counts, m)
		e.m = m
		probes += e.probes
		pl.memo[m] = e
		return e
	}
	m, _ := xmath.MinimizeConvexIntFrom(func(m int) float64 {
		e := at(m)
		if e.err != nil {
			return math.Inf(1)
		}
		return e.h
	}, 1, maxM, startM)
	e := at(m)
	e.leaves, e.probes = len(pl.memo), probes
	return e
}

// screenCandidate places one level-vector candidate with a single
// coarse exact W search at a fixed chunk count (the incumbent's m*),
// returning its approximate overhead; failures park at +Inf so the
// candidate simply never earns the full search.
func (pl *Planner) screenCandidate(branch []int, m int) float64 {
	fillCounts(pl.counts, branch)
	e := screenW(pl.ev, pl.counts, m)
	if e.err != nil || math.IsNaN(e.h) {
		return math.Inf(1)
	}
	return e.h
}

// fillCounts assembles the count vector of a branch-factor vector into
// counts (len(branch)+1 slots): counts[L-1] = 1 and counts[l] =
// counts[l+1]·branch[l], the UniformSpec rule without the allocation.
func fillCounts(counts, branch []int) {
	counts[len(branch)] = 1
	for l := len(branch) - 1; l >= 0; l-- {
		counts[l] = counts[l+1] * branch[l]
	}
}

// firstOrderBound returns the m-minimised first-order overhead
// 2·sqrt(oef·orw) of a level-vector candidate — the W-optimal overhead
// of the Definition 1 model, a lower-bound proxy for the exact
// overhead used only to prune (with pruneSlack headroom), never to
// rank survivors — with its argmin m and the number of first-order
// probes it ran. The m search descends from startM: the product is
// unimodal in m (see firstOrderSeed), so the descent lands on the
// ternary search's argmin from any start.
func firstOrderBound(p Params, branch, counts []int, maxM, startM int) (bound float64, m, probes int) {
	fillCounts(counts, branch)
	m, prod := xmath.MinimizeConvexIntFrom(func(m int) float64 {
		probes++
		oef, orw := p.FirstOrder(counts, m)
		return oef * orw
	}, 1, maxM, startM)
	return 2 * math.Sqrt(prod), m, probes
}

// firstOrderSeed minimises the first-order product oef·orw (whose
// minimiser is W-free, exactly as in Theorems 2-4) over the branching
// factors and the chunk count, writing the branch minimiser into seed
// and returning the chunk minimiser and the number of first-order
// probes it ran. Evaluations are O(L) on the caller's counts scratch,
// with no allocation.
//
// The search is nested, dimension 0 outermost. Dimension 0 keeps a
// ternary search over [1, MaxBranch]: its nested minimum is not
// unimodal, so a descent could stop in a local dip. Every inner
// dimension and m descend from that dimension's previous argmin
// instead, because consecutive probes of the dimension above move the
// inner argmins by a step or two. In m the product is unimodal: with
// x = (m-2)r+2, oef = α + βx and orw = γ + δ/x, so the product is
// βγ·x + αδ/x + const with β, γ, δ ≥ 0 — strictly convex when αδ > 0,
// non-decreasing otherwise. An inner branch dimension is unimodal
// only near the optimum and only empirically: where the count vector
// n_l = k_l·n_{l+1} jumps, its nested minimum can dip for a step
// (seen in ~1% of random L=4 configurations with costs scattered
// ×100). Each inner descent therefore checks the points two steps
// either side of its landing point and, finding a lower one, runs the
// ternary search instead. The seed then equals the nested ternary
// search's (and so does the caps box) on every random configuration
// tried; TestFirstOrderSeedParity pins a seeded sample. This cuts a
// Hera seed from 83,248 probes to ~800 at L=3 and from 3.66M to
// ~2,700 at L=4.
func firstOrderSeed(p Params, seed, counts []int) (m, probes int) {
	product := func(m int) float64 {
		probes++
		fillCounts(counts, seed)
		oef, orw := p.FirstOrder(counts, m)
		return oef * orw
	}
	maxM := MaxBranch
	if p.Rates.Silent == 0 {
		maxM = 1
	}
	// Branch descents first start at 1 and the first m search is a
	// ternary one (m = 0: no previous argmin yet), so the seed is a
	// pure function of p, whatever the scratch held before.
	for d := range seed {
		seed[d] = 1
	}
	m = 0
	// descend returns the nested minimum over dimensions d.. and m.
	// Each search leaves its argmin in seed[d] (or m) as the next
	// search's start. A probe needs only the value, so the inner
	// searches re-run at the argmins only on the final pass, to land
	// every dimension of seed and m on the seed's own argmins.
	var descend func(d int, final bool) float64
	descend = func(d int, final bool) float64 {
		if d == len(seed) {
			var f float64
			if m == 0 {
				m, f = xmath.MinimizeConvexInt(product, 1, maxM)
			} else {
				m, f = xmath.MinimizeConvexIntFrom(product, 1, maxM, m)
			}
			return f
		}
		nested := func(k int) float64 {
			seed[d] = k
			return descend(d+1, false)
		}
		var k int
		var f float64
		if d == 0 {
			k, f = xmath.MinimizeConvexInt(nested, 1, MaxBranch)
		} else {
			k, f = xmath.MinimizeConvexIntFrom(nested, 1, MaxBranch, seed[d])
			// A lower value two steps away means the descent stopped in
			// a dip; search this dimension as the ternary seed did.
			if (k+2 <= MaxBranch && nested(k+2) < f) || (k > 2 && nested(k-2) < f) {
				k, f = xmath.MinimizeConvexInt(nested, 1, MaxBranch)
			}
		}
		seed[d] = k
		if !final {
			return f
		}
		return descend(d+1, true)
	}
	descend(0, true)
	return m, probes
}

// optimizeW minimises the exact expected overhead at fixed (counts, m)
// over W: xmath.MinimizeFrom seeded at the leaf's first-order period
// sqrt(oef/orw), kept to two orders of magnitude either side of it. A
// diverging probe reads as +Inf (evalSpec), so only a leaf with no
// finite probe comes back non-finite. The leaf's chunk layout is
// derived once, so each probe is pure arithmetic.
func optimizeW(ev *Evaluator, counts []int, m int) wEval {
	p := ev.Params()
	oef, orw := p.FirstOrder(counts, m)
	guess := xmath.SqrtRatio(oef, orw)
	if math.IsInf(guess, 1) || math.IsNaN(guess) || guess <= 0 {
		return wEval{err: fmt.Errorf("multilevel: no finite period guess for n=%v m=%d", counts, m)}
	}
	cl := ev.layout(m)
	probes := 0
	h := func(w float64) float64 {
		probes++
		return ev.evalSpec(cl, counts, w)/w - 1
	}
	w, hMin := xmath.MinimizeFrom(h, guess, guess/100, guess*100)
	return wEval{w: w, h: hMin, probes: probes}
}

// screenW places a screened candidate with a golden-section search
// over [W*/100, 100·W*] at a tolerance of 1e-4 of the first-order
// guess. MinimizeGolden takes that tolerance as relative, so for
// W* ≳ 10⁴ s the search stops before its first step and the screen is
// the overhead at ~50·W*, one exact probe: screening is inert, and no
// survivor refines. That is ROADMAP item 1's defect; a different
// screen search changes which candidates refine, so it belongs to that
// change. Refined candidates rerun through optimizeW at full
// precision, so screening never touches the returned Plan's bits.
func screenW(ev *Evaluator, counts []int, m int) wEval {
	p := ev.Params()
	oef, orw := p.FirstOrder(counts, m)
	guess := xmath.SqrtRatio(oef, orw)
	if math.IsInf(guess, 1) || math.IsNaN(guess) || guess <= 0 {
		return wEval{err: fmt.Errorf("multilevel: no finite period guess for n=%v m=%d", counts, m)}
	}
	cl := ev.layout(m)
	h := func(w float64) float64 {
		return ev.evalSpec(cl, counts, w)/w - 1
	}
	w, hMin := xmath.MinimizeGolden(h, guess/100, guess*100, guess*1e-4)
	return wEval{w: w, h: hMin, m: m}
}

// resize returns s with length n, reallocating only on growth.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
