package multilevel

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"respat/internal/sched"
	"respat/internal/xmath"
)

// MaxBranch caps the per-level branching factor and the chunk count
// considered by the first-order seeding stage, mirroring
// analytic.MaxSplit: it is only reached in degenerate parameter
// regimes.
const MaxBranch = 4096

// maxEnumCandidates bounds the level-vector box the planner will
// enumerate for the pruned parallel search. Realistic platforms yield
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
	// leaf from the first-order period. Like every count here it is
	// the same for any worker count.
	LeafProbes int
	// Workers is the fan-out width the exact evaluations ran under.
	Workers int
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
// owns a memoized Evaluator (see the Evaluator doc for what is cached),
// a pool of per-worker search contexts and the enumeration scratch,
// which one Plan call's fan-out rounds share. A Planner may plan again
// (a repeat allocates almost nothing), but no production caller plans
// twice on one: each builds a Planner per plan. A Planner is not safe
// for concurrent use; the parallel fan-out inside Plan spawns its own
// per-worker evaluators.
type Planner struct {
	ev      *Evaluator
	leaf    leafSearch
	workers int
	stats   SearchStats
	// pool holds one searchCtx per fan-out worker, kept warm across
	// rounds; pool[0] wraps the planner's own evaluator.
	// poolNext hands out slots during a round (reset before each one).
	pool     []*searchCtx
	poolNext atomic.Int64
	// scratch, reused across Plan calls
	branch  []int
	counts  []int
	seed    []int
	caps    []int
	surv    []int
	refine  []int
	screenH []float64
	results []wEval
}

// NewPlanner validates p once and returns a planner bound to it with
// the default fan-out width (GOMAXPROCS). Production callers plan once
// on each planner they build.
func NewPlanner(p Params) (*Planner, error) {
	ev, err := NewEvaluator(p)
	if err != nil {
		return nil, err
	}
	L := len(ev.Params().Levels)
	return &Planner{
		ev:      ev,
		leaf:    optimizeW,
		workers: runtime.GOMAXPROCS(0),
		pool:    []*searchCtx{newSearchCtx(ev)},
		branch:  make([]int, L-1),
		counts:  make([]int, L),
		seed:    make([]int, L-1),
		caps:    make([]int, L-1),
	}, nil
}

// ensurePool grows the context pool to n slots (slot 0 wraps the
// planner's evaluator; extra slots own fresh ones, since an Evaluator
// is not safe for concurrent use). Growth happens sequentially between
// fan-out rounds, so the handout inside a round is a plain atomic.
func (pl *Planner) ensurePool(n int) error {
	for len(pl.pool) < n {
		ev, err := NewEvaluator(pl.ev.Params())
		if err != nil {
			return err
		}
		pl.pool = append(pl.pool, newSearchCtx(ev))
	}
	return nil
}

// runRound fans the n cells out over the context pool: each worker
// claims one pooled context and threads it through the cells it runs.
// Every cell checks the request context first, so an abandoned plan
// (ctx cancelled) aborts within one candidate evaluation instead of
// finishing the round.
func (pl *Planner) runRound(ctx context.Context, n int, cell func(ctx *searchCtx, i int) error) error {
	workers := pl.workers
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	if err := pl.ensurePool(workers); err != nil {
		return err
	}
	pl.poolNext.Store(0)
	return sched.RunCellsCtx(n, pl.workers, func() (*searchCtx, error) {
		return pl.pool[pl.poolNext.Add(1)-1], nil
	}, func(sc *searchCtx, i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		return cell(sc, i)
	})
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

// Plan runs the pruned parallel search:
//
//  1. a first-order stage minimises the oef·orw product of Definition
//     1 (no renewal recursion; a few hundred O(L) probes, see
//     firstOrderSeed) to locate the search region and caps the
//     per-dimension box, exactly as the nested search did;
//  2. the seed vector is evaluated exactly (sequentially, on the
//     planner's own evaluator) to obtain the incumbent — its overhead,
//     its optimal chunk count m* and the screening reference;
//  3. every other level-vector candidate in the box is bounded by its
//     m-minimised first-order overhead 2·sqrt(oef·orw); candidates
//     whose bound exceeds pruneSlack × the seed's own first-order
//     overhead are pruned without touching the exact model;
//  4. the survivors fan out over sched.RunCellsCtx — one pooled warm
//     Evaluator per worker, each cell writing only its own slot — for
//     a screening pass: one coarse exact W search at the incumbent's
//     m*, enough to rank level vectors (the exact overhead is nearly
//     flat in m near m*);
//  5. survivors whose screen lands within refineMargin of the best
//     screen fan out again for the full m/W search — the same leaves
//     the nested convex search would have run — and a sequential
//     index-order scan with strict-less tie-breaking picks the winner.
//
// Every candidate's exact value is computed by the same deterministic
// leaf W search regardless of which worker runs it, the
// screen and refine sets are pure functions of deterministic values,
// and the reduction order is fixed — so the returned Plan is
// bit-identical for any worker count. Bit-parity with the
// sequential nested convex search of the pre-pruning planner is
// asserted across the Table 2 grid by TestPlannerGoldenParity.
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
	pl.stats = SearchStats{Workers: pl.workers}
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

	// Incumbent: the seed vector, evaluated exactly on the warm
	// evaluator before any pruning decision, so the screen/refine
	// thresholds are pure functions of the configuration (never of
	// scheduling).
	seedIdx := pl.candidateIndex(pl.seed)
	incumbent := pl.pool[0].evalCandidate(pl.seed, maxM, seedM, pl.leaf)
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

	// Bound-and-prune pass (sequential, O(L·log m) per candidate).
	// First-order is compared against first-order, so the model's
	// absolute error cancels; only a >5% ranking error could prune the
	// exact optimum.
	seedBound := firstOrderBound(p, pl.seed, pl.counts, maxM, seedM)
	pl.surv = pl.surv[:0]
	for idx := 0; idx < box; idx++ {
		if idx == seedIdx {
			continue
		}
		pl.decode(idx, pl.branch)
		if firstOrderBound(p, pl.branch, pl.counts, maxM, seedM) > pruneSlack*seedBound {
			pl.stats.Pruned++
			continue
		}
		pl.surv = append(pl.surv, idx)
	}

	// Screening fan-out: place every survivor with one coarse W search
	// at the incumbent's m*. Screen failures park at +Inf (the
	// candidate simply never refines).
	surv := pl.surv
	pl.screenH = resize(pl.screenH, len(surv))
	screenH := pl.screenH
	pl.stats.Screened = len(surv)
	pl.stats.Leaves += len(surv)
	err := pl.runRound(ctx, len(surv), func(ctx *searchCtx, i int) error {
		branch := ctx.scratchBranch(len(pl.caps))
		pl.decode(surv[i], branch)
		screenH[i] = ctx.screenCandidate(branch, incumbent.m)
		return nil
	})
	if err != nil {
		return Plan{}, err
	}

	// Refine set: survivors within refineMargin of the best screen
	// (the incumbent's exact overhead is itself a screen value — a
	// candidate must at least approach it to earn the full m search).
	minScreen := incumbent.h
	for _, h := range screenH {
		if h < minScreen {
			minScreen = h
		}
	}
	pl.refine = pl.refine[:0]
	for i, idx := range surv {
		if screenH[i] <= minScreen*(1+refineMargin) {
			pl.refine = append(pl.refine, idx)
		}
	}

	// Refinement fan-out: the full m/W search, identical leaves to the
	// nested convex search.
	refine := pl.refine
	pl.results = resize(pl.results, len(refine))
	results := pl.results
	pl.stats.Evaluated += len(refine)
	err = pl.runRound(ctx, len(refine), func(ctx *searchCtx, i int) error {
		branch := ctx.scratchBranch(len(pl.caps))
		pl.decode(refine[i], branch)
		results[i] = ctx.evalCandidate(branch, maxM, incumbent.m, pl.leaf)
		return nil
	})
	if err != nil {
		return Plan{}, err
	}

	// Deterministic reduction: ascending candidate index (refine is
	// built in index order), strict less, so ties go to the
	// lexicographically-first candidate regardless of worker count.
	bestIdx := seedIdx
	best := incumbent
	for i, idx := range refine {
		e := results[i]
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
	// Final cancellation check: a cancelled search may have parked
	// arbitrary leaves at +Inf, so its reduction must never be served
	// as if it were the full search's.
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

// searchCtx is the per-worker state of the exact stage: a private
// evaluator (evaluators are not concurrency-safe), the per-candidate
// m-search memo and the counts scratch. Reusing the memo map across
// candidates (cleared, not reallocated) keeps the fan-out
// allocation-lean.
type searchCtx struct {
	ev     *Evaluator
	memo   map[int]wEval
	counts []int
	branch []int
}

func newSearchCtx(ev *Evaluator) *searchCtx {
	L := len(ev.Params().Levels)
	return &searchCtx{
		ev:     ev,
		memo:   make(map[int]wEval),
		counts: make([]int, L),
		branch: make([]int, L-1),
	}
}

func (sc *searchCtx) scratchBranch(n int) []int {
	if cap(sc.branch) < n {
		sc.branch = make([]int, n)
	}
	return sc.branch[:n]
}

// evalCandidate runs the capped convex integer search over m for one
// level-vector candidate, descending from startM (the seed's or the
// incumbent's chunk count, which neighbouring candidates share to
// within a step or two), with the leaf W search at every m. Leaves
// are memoized per candidate so the descent's final lookup never
// recomputes a leaf.
func (sc *searchCtx) evalCandidate(branch []int, maxM, startM int, leaf leafSearch) wEval {
	fillCounts(sc.counts, branch)
	clear(sc.memo)
	probes := 0
	at := func(m int) wEval {
		if e, ok := sc.memo[m]; ok {
			return e
		}
		e := leaf(sc.ev, sc.counts, m)
		e.m = m
		probes += e.probes
		sc.memo[m] = e
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
	e.leaves, e.probes = len(sc.memo), probes
	return e
}

// screenCandidate places one level-vector candidate with a single
// coarse exact W search at a fixed chunk count (the incumbent's m*),
// returning its approximate overhead; failures park at +Inf so the
// candidate simply never earns the full search.
func (sc *searchCtx) screenCandidate(branch []int, m int) float64 {
	fillCounts(sc.counts, branch)
	e := screenW(sc.ev, sc.counts, m)
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
// rank survivors. The m search descends from the seed's chunk count
// seedM: the product is unimodal in m (see firstOrderSeed), so the
// descent lands on the ternary search's argmin.
func firstOrderBound(p Params, branch, counts []int, maxM, seedM int) float64 {
	fillCounts(counts, branch)
	_, prod := xmath.MinimizeConvexIntFrom(func(m int) float64 {
		oef, orw := p.FirstOrder(counts, m)
		return oef * orw
	}, 1, maxM, seedM)
	return 2 * math.Sqrt(prod)
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
// finite probe comes back non-finite. Probes run through the
// evaluator's prefetched chunk layout and boundary table, so each one
// is pure arithmetic.
func optimizeW(ev *Evaluator, counts []int, m int) wEval {
	p := ev.Params()
	oef, orw := p.FirstOrder(counts, m)
	guess := xmath.SqrtRatio(oef, orw)
	if math.IsInf(guess, 1) || math.IsNaN(guess) || guess <= 0 {
		return wEval{err: fmt.Errorf("multilevel: no finite period guess for n=%v m=%d", counts, m)}
	}
	cl, err := ev.layout(m)
	if err != nil {
		return wEval{err: err}
	}
	bt := ev.table(counts)
	probes := 0
	h := func(w float64) float64 {
		probes++
		return ev.evalSpec(cl, bt, w)/w - 1
	}
	w, hMin := xmath.MinimizeFrom(h, guess, guess/100, guess*100)
	return wEval{w: w, h: hMin, probes: probes}
}

// screenW places a screened candidate with a golden-section search
// over [W*/100, 100·W*] at a tolerance of 1e-4 of the first-order
// guess. MinimizeGolden takes that tolerance as relative, so for
// W* ≳ 10⁴ s the search stops before its first step and the screen is
// the overhead at ~50·W*: screening is inert, and no survivor refines.
// That is ROADMAP item 1's defect; a different screen search changes
// which candidates refine, so it belongs to that change. Refined
// candidates rerun through optimizeW at full precision, so screening
// never touches the returned Plan's bits.
func screenW(ev *Evaluator, counts []int, m int) wEval {
	p := ev.Params()
	oef, orw := p.FirstOrder(counts, m)
	guess := xmath.SqrtRatio(oef, orw)
	if math.IsInf(guess, 1) || math.IsNaN(guess) || guess <= 0 {
		return wEval{err: fmt.Errorf("multilevel: no finite period guess for n=%v m=%d", counts, m)}
	}
	cl, err := ev.layout(m)
	if err != nil {
		return wEval{err: err}
	}
	bt := ev.table(counts)
	h := func(w float64) float64 {
		return ev.evalSpec(cl, bt, w)/w - 1
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
