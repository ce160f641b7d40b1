package multilevel

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"respat/internal/platform"
	"respat/internal/xmath"
)

// plannerGolden pins the planner's output bits across the Table 2
// platforms and L ∈ {1,2,3}. The plans — level vectors and m — are
// the pre-overhaul sequential nested convex search's (commit 62df4f4,
// before the pruned search landed), so this table is the
// contract that the overhaul changed how the optimum is found, not
// what it is. The W and H bits were re-captured when the leaf W search
// moved from golden section to xmath.MinimizeFrom, after
// TestPlannerLeafOracleParity passed on these rows: W moved by at most
// 2.7e-7 relative and H by at most 3.9e-14 relative.
var plannerGolden = []struct {
	platform string
	levels   int
	counts   []int
	m        int
	wBits    uint64
	hBits    uint64
}{
	{"Hera", 1, []int{1}, 48, 0x40c726a3dc3ac634, 0x3fac4ea4e1213e80},
	{"Hera", 2, []int{9, 1}, 16, 0x40e139f77716d2be, 0x3fa162b2e60bcfe0},
	{"Hera", 3, []int{12, 2, 1}, 16, 0x40e77761b61a699e, 0x3fa1c26447f1e8e0},
	{"Atlas", 1, []int{1}, 80, 0x40c3aeb58813ef36, 0x3fb7c07c13a08000},
	{"Atlas", 2, []int{27, 1}, 17, 0x40ebcda7aefb570c, 0x3fa175649a9c54c0},
	{"Atlas", 3, []int{39, 3, 1}, 17, 0x40f434dc4c13bc1e, 0x3fa1439363edc500},
	{"Coastal", 1, []int{1}, 167, 0x40dc2ec231462cf9, 0x3fb34af8a6728f10},
	{"Coastal", 2, []int{36, 1}, 16, 0x40f8b4397cf1ea8a, 0x3f9c6f6b69070900},
	{"Coastal", 3, []int{52, 4, 1}, 16, 0x4101a295287b8b13, 0x3f99f9739f695400},
	{"Coastal-SSD", 1, []int{1}, 41, 0x40e614745b5990d2, 0x3fc015313c47eec0},
	{"Coastal-SSD", 2, []int{9, 1}, 16, 0x4102f6722f966f2a, 0x3fb3c582ec400890},
	{"Coastal-SSD", 3, []int{12, 2, 1}, 16, 0x410a0a45d8fa360c, 0x3fb45fb1c7a19020},
}

func samePlan(t *testing.T, label string, got, want Plan) {
	t.Helper()
	if len(got.Spec.Counts) != len(want.Spec.Counts) {
		t.Fatalf("%s: counts %v, want %v", label, got.Spec.Counts, want.Spec.Counts)
	}
	for l := range want.Spec.Counts {
		if got.Spec.Counts[l] != want.Spec.Counts[l] {
			t.Fatalf("%s: counts %v, want %v", label, got.Spec.Counts, want.Spec.Counts)
		}
	}
	if got.Spec.M != want.Spec.M {
		t.Fatalf("%s: m = %d, want %d", label, got.Spec.M, want.Spec.M)
	}
	if math.Float64bits(got.Spec.W) != math.Float64bits(want.Spec.W) {
		t.Fatalf("%s: W = %v (bits %x), want %v (bits %x)",
			label, got.Spec.W, math.Float64bits(got.Spec.W),
			want.Spec.W, math.Float64bits(want.Spec.W))
	}
	if math.Float64bits(got.Overhead) != math.Float64bits(want.Overhead) {
		t.Fatalf("%s: H = %v (bits %x), want %v (bits %x)",
			label, got.Overhead, math.Float64bits(got.Overhead),
			want.Overhead, math.Float64bits(want.Overhead))
	}
}

// TestPlannerGoldenParity asserts the pruned planner returns
// plans bit-identical to (a) the captured pre-overhaul outputs and (b)
// a live run of the sequential nested convex reference, across the
// Table 2 platforms and hierarchy depths.
func TestPlannerGoldenParity(t *testing.T) {
	for _, g := range plannerGolden {
		pl, err := platform.ByName(g.platform)
		if err != nil {
			t.Fatal(err)
		}
		p, err := FromPlatform(pl, g.levels)
		if err != nil {
			t.Fatal(err)
		}
		label := g.platform + "/" + string(rune('0'+g.levels))

		golden := Plan{
			Spec:     Spec{W: math.Float64frombits(g.wBits), Counts: g.counts, M: g.m},
			Overhead: math.Float64frombits(g.hBits),
		}
		got, err := Optimize(p)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		samePlan(t, label+" vs golden", got, golden)

		ev, err := NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := optimizeReference(ev)
		if err != nil {
			t.Fatalf("%s: reference: %v", label, err)
		}
		samePlan(t, label+" vs reference", got, ref)
	}
}

// TestPlannerWarmReuse asserts a planner can be reused across Plan
// calls without drifting from a cold run. No production caller plans
// twice on one planner, but the API allows it.
func TestPlannerWarmReuse(t *testing.T) {
	pl, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	p, err := FromPlatform(pl, 3)
	if err != nil {
		t.Fatal(err)
	}
	pln, err := NewPlanner(p)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := pln.Plan()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		warm, err := pln.Plan()
		if err != nil {
			t.Fatal(err)
		}
		samePlan(t, "warm replan", warm, cold)
	}
}

// scatteredParams draws a random depth-L configuration around the
// Table 2 grid: a random platform whose two rates and six costs are
// each scaled by an independent log-uniform factor in [1/s, s], with a
// random interior-verification flavour.
func scatteredParams(t *testing.T, rng *rand.Rand, levels int, s float64) Params {
	t.Helper()
	t2 := platform.Table2()
	pl := t2[rng.IntN(len(t2))]
	f := func() float64 { return math.Exp((2*rng.Float64() - 1) * math.Log(s)) }
	pl.Rates = pl.Rates.Scale(f(), f())
	c := &pl.Costs
	for _, v := range []*float64{&c.DiskCkpt, &c.MemCkpt, &c.DiskRec, &c.MemRec, &c.GuarVer, &c.PartVer} {
		*v *= f()
	}
	p, err := FromPlatform(pl, levels)
	if err != nil {
		t.Fatal(err)
	}
	p.InteriorGuaranteed = rng.IntN(2) == 1
	return p
}

// TestFirstOrderSeedParity asserts the descent seed equals the nested
// ternary seed it replaced — branch vector and m — on a seeded random
// sample at ×2/×10/×100 scatter, L = 1..4, both verification
// flavours.
func TestFirstOrderSeedParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 1))
	perDepth := map[int]int{1: 30, 2: 30, 3: 30, 4: 2}
	for _, s := range []float64{2, 10, 100} {
		for levels := 1; levels <= MaxLevels; levels++ {
			for i := 0; i < perDepth[levels]; i++ {
				p := scatteredParams(t, rng, levels, s)
				got, want := make([]int, levels-1), make([]int, levels-1)
				counts := make([]int, levels)
				gotM, _ := firstOrderSeed(p, got, counts)
				wantM := firstOrderSeedTernary(p, want, counts)
				if fmt.Sprint(got, gotM) != fmt.Sprint(want, wantM) {
					t.Fatalf("x%g L=%d #%d %+v: seed %v m=%d, ternary %v m=%d",
						s, levels, i, p, got, gotM, want, wantM)
				}
			}
		}
	}
}

// ternaryPlans pins the planner's output bits on the seeded random
// sample of TestPlannerTernaryParity (ternarySample). The plans were
// captured from the planner as it ran before the seed and m searches
// became descents (commit d687cae: ternary seed, ternary m searches),
// so this table is the contract that the descents changed how the
// optimum is found, not what it is. The W and H bits were re-captured
// when the leaf W search moved from golden section to
// xmath.MinimizeFrom, after TestPlannerLeafOracleParity passed on
// these rows: W moved by at most 2.3e-7 relative and H by at most
// 2.3e-13, except on the row marked golden leaf, whose plan changed to
// a lower H. The rows cover the refine path, not just the incumbent.
var ternaryPlans = []struct {
	counts       []int
	m            int
	wBits, hBits uint64
}{
	{[]int{19, 1}, 21, 0x40e831319ae5ac2b, 0x3fa07d154f3a9f00},
	{[]int{34, 1}, 2, 0x40e9f0397f16dd42, 0x3fa9a99e1f9f1840},
	{[]int{11, 1}, 19, 0x40e7184013a5b9a4, 0x3f99c90b9187fcc0},
	{[]int{14, 1}, 13, 0x41084a3b523385bf, 0x3fb5307be1d796a0},
	{[]int{37, 1}, 13, 0x40fbc1299d528979, 0x3fa19b3186aad840},
	{[]int{12, 1}, 12, 0x40e1bbf90a296036, 0x3f9ac24e803f6580},
	{[]int{27, 3, 1}, 1, 0x40f1fe05e64b1468, 0x3faa2bc881a27ae0},
	{[]int{46, 2, 1}, 1, 0x40f6741f3790961a, 0x3f9edda1e52204c0},
	{[]int{48, 4, 1}, 12, 0x40fcf4f0e18f45a4, 0x3f9ebd66d18e8dc0},
	{[]int{44, 4, 1}, 12, 0x40f8d0b4d661509c, 0x3f9a97bf5d26bdc0},
	{[]int{135, 5, 1}, 1, 0x410dec5e66857d7e, 0x3f9b6701a606c880},
	{[]int{48, 3, 1}, 12, 0x40f3211e8e2e3389, 0x3fa47635c997a4a0},
	{[]int{60, 4, 2, 1}, 1, 0x40f07a5efed2573f, 0x3fa37cfa043f0880},
	{[]int{12, 4, 2, 1}, 17, 0x411176ebada4c86a, 0x3fb6c8b5eb4944f0},
	{[]int{16, 4, 2, 1}, 18, 0x40ef61b6d88ff4f0, 0x3fa81059ec3161c0},
	{[]int{15, 1}, 1, 0x40e01008ed9d534b, 0x3facb03a55c0c980},
	{[]int{3, 1}, 3, 0x40e4f0f2618b5b8f, 0x3f87216408ec2700},
	{[]int{16, 1}, 1, 0x40eb51fbbde6bd77, 0x3fafb631e3cb5200},
	{[]int{3, 1}, 2, 0x40cd9ec50e5f9449, 0x3f8dd2ed37d11580},
	{[]int{6, 1}, 1, 0x40ee24da4902c9c0, 0x3fc998b18ed440d8},
	{[]int{39, 1}, 4, 0x40f72a354f86285f, 0x3fa6f9e95c431100},
	{[]int{52, 2, 1}, 32, 0x40ec2bd68d44c1ea, 0x3fafb2274be5c200},
	{[]int{11, 1, 1}, 1, 0x40eaefc13ab0402a, 0x3fb0e46290f7cd50},
	{[]int{24, 3, 1}, 13, 0x41040a9cde4dfced, 0x3f959cb23316b500},
	{[]int{20, 2, 1}, 41, 0x410a8352e585c844, 0x3fc2b550c366b7f0},
	{[]int{24, 2, 1}, 29, 0x40f2442206b8880d, 0x3fac521337889400},
	{[]int{6, 2, 1}, 13, 0x40c536fa73442f71, 0x3fab8daae4ef6dc0}, // refines 5
	{[]int{80, 4, 2, 1}, 3, 0x40f34259bf118349, 0x3fc3e20c76892f30},
	{[]int{8, 8, 2, 1}, 1, 0x40f9caf3c0d0fc1f, 0x3fb95822bf2cd750},
	{[]int{36, 6, 2, 1}, 9, 0x40ef6035f5fc7887, 0x3faf828084431ac0},
	{[]int{8, 1}, 1, 0x40fd6b197231dd63, 0x3fa67188448f51e0},
	{[]int{2, 1}, 5, 0x40ce57ce2b71eb7c, 0x401b9a5b4a3105ea},
	{[]int{63, 1}, 1, 0x411c0de26b702a64, 0x3fb910dc352c6a70},
	{[]int{1, 1}, 7, 0x40b084bd0f23e363, 0x3fd9b309424dd19c},
	{[]int{10, 1}, 152, 0x40fa3ca267b39fba, 0x3fd245a4fc56a408},
	{[]int{1, 1}, 1, 0x40b86b1c5d6704cc, 0x3f8e1026b0ad6380},
	{[]int{1160, 8, 1}, 1, 0x412adc9caba79781, 0x3f950cf1c177f8c0},
	{[]int{2, 1, 1}, 12, 0x40bc4faeb0786441, 0x3fd02d33bd285864}, // refines 1
	{[]int{32, 4, 1}, 51, 0x40ee2034c4fd4dde, 0x3f9cae7e728c8540},
	{[]int{95, 5, 1}, 1, 0x412b3bcffe431930, 0x4000b441b4f5976c}, // golden leaf: nested fallback, H 4.6% higher
	{[]int{2, 1, 1}, 2, 0x40eddfa9d332536f, 0x3f81562315ab9900},
	{[]int{30, 1, 1}, 131, 0x410526929ac323bd, 0x3f9e4920ae162600},
	{[]int{171, 9, 3, 1}, 1, 0x40f20c51372eed61, 0x3f71d1caa7ceea00},
	{[]int{6, 6, 3, 1}, 1, 0x40c8a05c439e6b1d, 0x3fb44750f50621a0}, // refines 6
	{[]int{8, 8, 2, 1}, 5, 0x40e8637707354c88, 0x3fcca56f4e62c650},
}

// TestPlannerTernaryParity asserts Optimize returns the captured
// ternaryPlans bits on a seeded random sample at ×2/×10/×100 scatter,
// L = 2..4, both verification flavours. The nested reference is no
// oracle off the Table 2 grid: the pruned search and the nested
// ternary search pick different vectors on 20-40% of random
// configurations.
func TestPlannerTernaryParity(t *testing.T) {
	for row, c := range ternarySample(t) {
		got, err := Optimize(c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.label, err)
		}
		g := ternaryPlans[row]
		want := Plan{
			Spec:     Spec{W: math.Float64frombits(g.wBits), Counts: g.counts, M: g.m},
			Overhead: math.Float64frombits(g.hBits),
		}
		samePlan(t, c.label, got, want)
	}
}

// sampledParams is one configuration of a seeded parity sample, with
// the scatter it was drawn at.
type sampledParams struct {
	p       Params
	scatter float64
	label   string
}

// ternarySample draws the configurations of ternaryPlans, in row
// order: PCG(13, 3), and for each scatter ×2, ×10, ×100 six L=2, six
// L=3 and three L=4 configurations.
func ternarySample(t *testing.T) []sampledParams {
	rng := rand.New(rand.NewPCG(13, 3))
	perDepth := map[int]int{2: 6, 3: 6, 4: 3}
	var out []sampledParams
	for _, s := range []float64{2, 10, 100} {
		for levels := 2; levels <= MaxLevels; levels++ {
			for i := 0; i < perDepth[levels]; i++ {
				p := scatteredParams(t, rng, levels, s)
				out = append(out, sampledParams{p, s, fmt.Sprintf("x%g L=%d #%d %+v", s, levels, i, p)})
			}
		}
	}
	return out
}

// TestPlannerLeafOracleParity plans each configuration twice, over
// optimizeW and over the golden-section oracle leaf: the Table 2 grid
// at L = 1..3 (plannerGolden's rows), ternaryPlans' sample, and a
// seeded sample at ×2/×10/×100 scatter, L = 2..4, both verification
// flavours. Up to ×10 scatter (and on the grid) the two plans must
// pick the same level vector and m after the same search (Leaves,
// Screened, Evaluated and Pruned equal), with W within 1e-5 relative
// and H no more than 1e-12 relative above the oracle's. At ×100, where
// wide leaves can be non-unimodal, a changed plan must have a strictly
// lower H, or come from an oracle that fell back to the nested search
// because its golden leaf diverged on the seed vector.
func TestPlannerLeafOracleParity(t *testing.T) {
	var sample []sampledParams
	for _, name := range []string{"Hera", "Atlas", "Coastal", "Coastal-SSD"} {
		pl, err := platform.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for levels := 1; levels <= 3; levels++ {
			p, err := FromPlatform(pl, levels)
			if err != nil {
				t.Fatal(err)
			}
			sample = append(sample, sampledParams{p, 1, fmt.Sprintf("%s L=%d", name, levels)})
		}
	}
	sample = append(sample, ternarySample(t)...)
	rng := rand.New(rand.NewPCG(17, 6))
	// Draws at L = 2, 3, 4. A ×100 plan with a large box costs up to
	// seconds (an L=4 nested fallback ~50 s with the oracle leaf), so
	// ×100 takes fewer draws, and its L=4 rows are ternaryPlans' only.
	perDepth := map[float64][3]int{2: {10, 10, 3}, 10: {10, 10, 3}, 100: {10, 6, 0}}
	for _, s := range []float64{2, 10, 100} {
		for levels := 2; levels <= MaxLevels; levels++ {
			for i := 0; i < perDepth[s][levels-2]; i++ {
				p := scatteredParams(t, rng, levels, s)
				sample = append(sample, sampledParams{p, s, fmt.Sprintf("x%g L=%d #%d %+v", s, levels, i, p)})
			}
		}
	}
	for _, c := range sample {
		pln, err := NewPlanner(c.p)
		if err != nil {
			t.Fatal(err)
		}
		oracle, err := NewPlanner(c.p)
		if err != nil {
			t.Fatal(err)
		}
		oracle.leaf = optimizeWGolden
		got, err := pln.Plan()
		want, oracleErr := oracle.Plan()
		if (err != nil) != (oracleErr != nil) {
			t.Fatalf("%s: error %v, oracle error %v", c.label, err, oracleErr)
		}
		if err != nil {
			continue
		}
		st, ost := pln.Stats(), oracle.Stats()
		if fmt.Sprint(got.Spec.Counts, got.Spec.M) != fmt.Sprint(want.Spec.Counts, want.Spec.M) {
			// The one exception: a golden leaf that walks into the
			// diverging +Inf tail reads the seed vector as diverged,
			// so the oracle falls back to the nested search while
			// the production plan is the seed vector's, screening
			// being inert (ROADMAP item 1).
			if c.scatter == 100 && (got.Overhead < want.Overhead || ost.Fallback && !st.Fallback) {
				continue
			}
			t.Fatalf("%s: n=%v m=%d H=%v, oracle n=%v m=%d H=%v", c.label,
				got.Spec.Counts, got.Spec.M, got.Overhead, want.Spec.Counts, want.Spec.M, want.Overhead)
		}
		if math.Abs(got.Spec.W-want.Spec.W) > 1e-5*want.Spec.W || got.Overhead > want.Overhead*(1+1e-12) {
			t.Fatalf("%s: W=%v H=%v, oracle W=%v H=%v", c.label, got.Spec.W, got.Overhead, want.Spec.W, want.Overhead)
		}
		if c.scatter < 100 && (st.Leaves != ost.Leaves || st.Screened != ost.Screened ||
			st.Evaluated != ost.Evaluated || st.Pruned != ost.Pruned) {
			t.Fatalf("%s: stats %+v, oracle %+v", c.label, st, ost)
		}
	}
}

// TestCandidateSearchParity asserts the planner's descending m
// searches equal the ternary searches they replaced, on the inputs the
// planner feeds them: the first-order bound of every candidate in the
// caps box, in enumeration order with each descent starting at the
// previous candidate's argmin (the seed's bound from the seed's m), and
// the exact m search of the seed vector (from the seed's m) and of
// sampled box candidates (from the incumbent's m).
func TestCandidateSearchParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 4))
	for _, s := range []float64{2, 10, 100} {
		for levels := 2; levels <= 3; levels++ {
			for i := 0; i < 4; i++ {
				p := scatteredParams(t, rng, levels, s)
				label := fmt.Sprintf("x%g L=%d #%d %+v", s, levels, i, p)
				pl, err := NewPlanner(p)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := pl.Plan(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				st := pl.Stats()
				if st.Fallback {
					continue // the nested fallback runs no descent
				}
				seedM, _ := firstOrderSeed(p, pl.seed, pl.counts)
				maxM := min(3*seedM+4, MaxBranch)
				if p.Rates.Silent == 0 {
					maxM = 1
				}
				counts := make([]int, levels)
				ternary := func(branch []int) (int, float64) {
					fillCounts(counts, branch)
					m, prod := xmath.MinimizeConvexInt(func(m int) float64 {
						oef, orw := p.FirstOrder(counts, m)
						return oef * orw
					}, 1, maxM)
					return m, 2 * math.Sqrt(prod)
				}
				check := func(branch []int, start int) (m, probes int) {
					got, m, probes := firstOrderBound(p, branch, counts, maxM, start)
					wantM, want := ternary(branch)
					if m != wantM || math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: bound of %v from m=%d: m=%d %v, ternary m=%d %v",
							label, branch, start, m, got, wantM, want)
					}
					return m, probes
				}
				start, boundProbes := check(pl.seed, seedM)
				seedIdx := pl.candidateIndex(pl.seed)
				branch := make([]int, levels-1)
				for idx := 0; idx < st.Candidates; idx++ {
					if idx == seedIdx {
						continue
					}
					pl.decode(idx, branch)
					m, probes := check(branch, start)
					start, boundProbes = m, boundProbes+probes
				}
				if boundProbes != st.BoundProbes {
					t.Fatalf("%s: %d bound probes in enumeration order, stats %d", label, boundProbes, st.BoundProbes)
				}
				incumbent := pl.evalCandidate(pl.seed, maxM, seedM)
				sameLeaf(t, label, pl.ev, pl.seed, maxM, incumbent)
				for j := 0; j < 3; j++ {
					pl.decode(rng.IntN(st.Candidates), branch)
					sameLeaf(t, label, pl.ev, branch, maxM, pl.evalCandidate(branch, maxM, incumbent.m))
				}
			}
		}
	}
}

// sameLeaf asserts got (a descending exact m search of branch) equals
// the ternary search over [1, maxM] in m, W and H bits.
func sameLeaf(t *testing.T, label string, ev *Evaluator, branch []int, maxM int, got wEval) {
	t.Helper()
	counts := make([]int, len(branch)+1)
	fillCounts(counts, branch)
	m, _ := xmath.MinimizeConvexInt(func(m int) float64 {
		e := optimizeW(ev, counts, m)
		if e.err != nil {
			return math.Inf(1)
		}
		return e.h
	}, 1, maxM)
	want := optimizeW(ev, counts, m)
	if got.m != m || math.Float64bits(got.w) != math.Float64bits(want.w) || math.Float64bits(got.h) != math.Float64bits(want.h) {
		t.Fatalf("%s: m search of %v: m=%d W=%v H=%v, ternary m=%d W=%v H=%v",
			label, branch, got.m, got.w, got.h, m, want.w, want.h)
	}
}
