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
// platforms and L ∈ {1,2,3}. The W and H columns are the exact
// IEEE-754 bit patterns the pre-overhaul sequential nested convex
// search produced (captured at commit 62df4f4's planner before the
// pruned parallel search landed), so this table is the contract that
// the overhaul changed how the optimum is found, not what it is.
var plannerGolden = []struct {
	platform string
	levels   int
	counts   []int
	m        int
	wBits    uint64
	hBits    uint64
}{
	{"Hera", 1, []int{1}, 48, 0x40c726a42ac92028, 0x3fac4ea4e1213fa0},
	{"Hera", 2, []int{9, 1}, 16, 0x40e139f760a87ef7, 0x3fa162b2e60bcfe0},
	{"Hera", 3, []int{12, 2, 1}, 16, 0x40e77761c7b34ff3, 0x3fa1c26447f1e8e0},
	{"Atlas", 1, []int{1}, 80, 0x40c3aeb5b720abf4, 0x3fb7c07c13a08070},
	{"Atlas", 2, []int{27, 1}, 17, 0x40ebcda7b8fbad44, 0x3fa175649a9c54e0},
	{"Atlas", 3, []int{39, 3, 1}, 17, 0x40f434dc6eb29f28, 0x3fa1439363edc4e0},
	{"Coastal", 1, []int{1}, 167, 0x40dc2ec24b718437, 0x3fb34af8a6728e40},
	{"Coastal", 2, []int{36, 1}, 16, 0x40f8b43939d88166, 0x3f9c6f6b69070900},
	{"Coastal", 3, []int{52, 4, 1}, 16, 0x4101a29576f06b68, 0x3f99f9739f6954c0},
	{"Coastal-SSD", 1, []int{1}, 41, 0x40e61474778e5fd6, 0x3fc015313c47eeb0},
	{"Coastal-SSD", 2, []int{9, 1}, 16, 0x4102f6722cd20d81, 0x3fb3c582ec4008b0},
	{"Coastal-SSD", 3, []int{12, 2, 1}, 16, 0x410a0a45fa3702ea, 0x3fb45fb1c7a19050},
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

// TestPlannerGoldenParity asserts the pruned parallel planner returns
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

// TestPlannerWorkerDeterminism asserts the fan-out width never touches
// the returned plan: the screen and refine sets are pure functions of
// the configuration, every candidate's value is computed by the same
// deterministic leaf search on whichever worker claims it, and the
// reduction is an index-order scan.
func TestPlannerWorkerDeterminism(t *testing.T) {
	for _, name := range []string{"Hera", "Coastal"} {
		pl, err := platform.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p, err := FromPlatform(pl, 3)
		if err != nil {
			t.Fatal(err)
		}
		var base Plan
		for i, workers := range []int{1, 2, 3, 8} {
			pln, err := NewPlanner(p)
			if err != nil {
				t.Fatal(err)
			}
			pln.workers = workers
			got, err := pln.Plan()
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if st := pln.Stats(); st.Workers != workers {
				t.Fatalf("%s: stats.Workers = %d, want %d", name, st.Workers, workers)
			}
			if i == 0 {
				base = got
				continue
			}
			samePlan(t, name+" across worker counts", got, base)
		}
	}
}

// TestPlannerWarmReuse asserts a planner can be reused across Plan
// calls (the service's warm per-shard path) without drifting from a
// cold run.
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
// sample of TestPlannerTernaryParity (PCG(13, 3); for each scatter ×2,
// ×10, ×100: six L=2, six L=3 and three L=4 configurations). The bits
// were captured from the planner as it ran before the seed and m
// searches became descents (commit d687cae: ternary seed, ternary m
// searches), so this
// table is the contract that the descents changed how the optimum is
// found, not what it is. The rows cover the refine path and the
// nested fallback, not just the incumbent.
var ternaryPlans = []struct {
	counts       []int
	m            int
	wBits, hBits uint64
}{
	{[]int{19, 1}, 21, 0x40e83131bbb91afa, 0x3fa07d154f3a9fc0},
	{[]int{34, 1}, 2, 0x40e9f039854d01a2, 0x3fa9a99e1f9f1880},
	{[]int{11, 1}, 19, 0x40e7183fe462cb46, 0x3f99c90b9187fd00},
	{[]int{14, 1}, 13, 0x41084a3b785b83d9, 0x3fb5307be1d796b0},
	{[]int{37, 1}, 13, 0x40fbc129f6c2fbf8, 0x3fa19b3186aad840},
	{[]int{12, 1}, 12, 0x40e1bbf90d843301, 0x3f9ac24e803f6500},
	{[]int{27, 3, 1}, 1, 0x40f1fe06048027c0, 0x3faa2bc881a27b20},
	{[]int{46, 2, 1}, 1, 0x40f6741f6642596a, 0x3f9edda1e5220540},
	{[]int{48, 4, 1}, 12, 0x40fcf4f14d4ca10a, 0x3f9ebd66d18e8f80},
	{[]int{44, 4, 1}, 12, 0x40f8d0b507b24c53, 0x3f9a97bf5d26be40},
	{[]int{135, 5, 1}, 1, 0x410dec5eab796718, 0x3f9b6701a606c8c0},
	{[]int{48, 3, 1}, 12, 0x40f3211eb006253e, 0x3fa47635c997a4e0},
	{[]int{60, 4, 2, 1}, 1, 0x40f07a5efec2e0c5, 0x3fa37cfa043f08a0},
	{[]int{12, 4, 2, 1}, 17, 0x411176ebbd4e9f5a, 0x3fb6c8b5eb4944e0},
	{[]int{16, 4, 2, 1}, 18, 0x40ef61b721bfe8d0, 0x3fa81059ec316200},
	{[]int{15, 1}, 1, 0x40e010090da65840, 0x3facb03a55c0c9c0},
	{[]int{3, 1}, 3, 0x40e4f0f2579f102a, 0x3f87216408ec2780},
	{[]int{16, 1}, 1, 0x40eb51fbc733208a, 0x3fafb631e3cb5200},
	{[]int{3, 1}, 2, 0x40cd9ec5695dc2a0, 0x3f8dd2ed37d11600},
	{[]int{6, 1}, 1, 0x40ee24da472b1fe6, 0x3fc998b18ed440e0},
	{[]int{39, 1}, 4, 0x40f72a357cb79940, 0x3fa6f9e95c431120},
	{[]int{52, 2, 1}, 32, 0x40ec2bd6a9aa5de4, 0x3fafb2274be5c140},
	{[]int{11, 1, 1}, 1, 0x40eaefc13768ead2, 0x3fb0e46290f7cd50},
	{[]int{24, 3, 1}, 13, 0x41040a9cca4cbb68, 0x3f959cb23316b5c0},
	{[]int{20, 2, 1}, 41, 0x410a8352d209f206, 0x3fc2b550c366b800},
	{[]int{24, 2, 1}, 29, 0x40f24421cef557f4, 0x3fac521337889420},
	{[]int{6, 2, 1}, 13, 0x40c536fa9b281089, 0x3fab8daae4ef6de0}, // refines 5
	{[]int{80, 4, 2, 1}, 3, 0x40f34259cdc35824, 0x3fc3e20c76892f40},
	{[]int{8, 8, 2, 1}, 1, 0x40f9caf3e68e03b1, 0x3fb95822bf2cd770},
	{[]int{36, 6, 2, 1}, 9, 0x40ef6035da0d7f3b, 0x3faf828084431ac0},
	{[]int{8, 1}, 1, 0x40fd6b198b3cd076, 0x3fa67188448f5200},
	{[]int{2, 1}, 5, 0x40ce57ce32337360, 0x401b9a5b4a3105ec},
	{[]int{63, 1}, 1, 0x411c0de27f013ff9, 0x3fb910dc352c6a70},
	{[]int{1, 1}, 7, 0x40b084bd0e56bfc9, 0x3fd9b309424dd1ac},
	{[]int{10, 1}, 152, 0x40fa3ca27b75fb6d, 0x3fd245a4fc56a494},
	{[]int{1, 1}, 1, 0x40b86b1ca329bbe3, 0x3f8e1026b0ad6500},
	{[]int{1160, 8, 1}, 1, 0x412adc9cc506374c, 0x3f950cf1c177f8c0},
	{[]int{2, 1, 1}, 12, 0x40bc4faeba98864c, 0x3fd02d33bd285860}, // refines 1
	{[]int{32, 4, 1}, 51, 0x40ee20351dda926c, 0x3f9cae7e728c8680},
	{[]int{27, 3, 1}, 1, 0x4115197f0ee39b52, 0x400177d89112e9a3}, // nested fallback
	{[]int{2, 1, 1}, 2, 0x40eddfaa3234255a, 0x3f81562315ab9a00},
	{[]int{30, 1, 1}, 131, 0x410526925d04633b, 0x3f9e4920ae162d80},
	{[]int{171, 9, 3, 1}, 1, 0x40f20c5153c2481e, 0x3f71d1caa7ceea00},
	{[]int{6, 6, 3, 1}, 1, 0x40c8a05c5fe0374f, 0x3fb44750f50621b0}, // refines 6
	{[]int{8, 8, 2, 1}, 5, 0x40e86376fcc2e5be, 0x3fcca56f4e62c650},
}

// TestPlannerTernaryParity asserts Optimize returns the captured
// ternaryPlans bits on a seeded random sample at ×2/×10/×100 scatter,
// L = 2..4, both verification flavours. The nested reference is no
// oracle off the Table 2 grid: the pruned search and the nested
// ternary search pick different vectors on 20-40% of random
// configurations.
func TestPlannerTernaryParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 3))
	perDepth := map[int]int{2: 6, 3: 6, 4: 3}
	row := 0
	for _, s := range []float64{2, 10, 100} {
		for levels := 2; levels <= MaxLevels; levels++ {
			for i := 0; i < perDepth[levels]; i++ {
				p := scatteredParams(t, rng, levels, s)
				label := fmt.Sprintf("x%g L=%d #%d %+v", s, levels, i, p)
				got, err := Optimize(p)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				g := ternaryPlans[row]
				row++
				want := Plan{
					Spec:     Spec{W: math.Float64frombits(g.wBits), Counts: g.counts, M: g.m},
					Overhead: math.Float64frombits(g.hBits),
				}
				samePlan(t, label, got, want)
			}
		}
	}
}

// TestCandidateSearchParity asserts the planner's two descending m
// searches equal the ternary searches they replaced, on the inputs the
// planner feeds them: the first-order bound of every candidate in the
// caps box (descending from the seed's m), and the exact m search of
// the seed vector (from the seed's m) and of sampled box candidates
// (from the incumbent's m).
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
				if pl.Stats().Fallback {
					continue // the nested fallback runs no descent
				}
				seedM, _ := firstOrderSeed(p, pl.seed, pl.counts)
				maxM := min(3*seedM+4, MaxBranch)
				if p.Rates.Silent == 0 {
					maxM = 1
				}
				counts := make([]int, levels)
				box := pl.Stats().Candidates
				branch := make([]int, levels-1)
				for idx := 0; idx < box; idx++ {
					pl.decode(idx, branch)
					got := firstOrderBound(p, branch, counts, maxM, seedM)
					fillCounts(counts, branch)
					_, prod := xmath.MinimizeConvexInt(func(m int) float64 {
						oef, orw := p.FirstOrder(counts, m)
						return oef * orw
					}, 1, maxM)
					if want := 2 * math.Sqrt(prod); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: bound of %v = %v, ternary %v", label, branch, got, want)
					}
				}
				sc := pl.pool[0]
				incumbent := sc.evalCandidate(pl.seed, maxM, seedM)
				sameLeaf(t, label, sc, pl.seed, maxM, incumbent)
				for j := 0; j < 3; j++ {
					pl.decode(rng.IntN(box), branch)
					sameLeaf(t, label, sc, branch, maxM, sc.evalCandidate(branch, maxM, incumbent.m))
				}
			}
		}
	}
}

// sameLeaf asserts got (a descending exact m search of branch) equals
// the ternary search over [1, maxM] in m, W and H bits.
func sameLeaf(t *testing.T, label string, sc *searchCtx, branch []int, maxM int, got wEval) {
	t.Helper()
	counts := make([]int, len(branch)+1)
	fillCounts(counts, branch)
	m, _ := xmath.MinimizeConvexInt(func(m int) float64 {
		e := optimizeW(sc.ev, counts, m)
		if e.err != nil {
			return math.Inf(1)
		}
		return e.h
	}, 1, maxM)
	want := optimizeW(sc.ev, counts, m)
	if got.m != m || math.Float64bits(got.w) != math.Float64bits(want.w) || math.Float64bits(got.h) != math.Float64bits(want.h) {
		t.Fatalf("%s: m search of %v: m=%d W=%v H=%v, ternary m=%d W=%v H=%v",
			label, branch, got.m, got.w, got.h, m, want.w, want.h)
	}
}
