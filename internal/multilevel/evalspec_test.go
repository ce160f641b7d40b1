package multilevel

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"respat/internal/analytic"
	"respat/internal/xmath"
)

// boundaryTable is the W- and m-independent boundary structure of one
// level-count vector n_1..n_L that evalSpec used to precompute: per
// level-1 interval t, the number of checkpoint levels written at the
// boundary closing it and a bitmask of the replay sums that reset
// there. It survives only as the oracle of the countdown counters.
type boundaryTable struct {
	n1     int
	bLevel []uint8 // boundaryLevel(strides, t): # of levels checkpointed after t
	reset  []uint8 // bit l set ⇒ back[l] resets after interval t
}

func newBoundaryTable(counts []int) *boundaryTable {
	n1 := counts[0]
	L := len(counts)
	bt := &boundaryTable{
		n1:     n1,
		bLevel: make([]uint8, n1),
		reset:  make([]uint8, n1),
	}
	for t := 0; t < n1; t++ {
		level := 1
		var mask uint8
		for l := 1; l < L; l++ {
			stride := n1 / counts[l]
			if (t+1)%stride == 0 {
				level = l + 1
				mask |= 1 << uint(l)
			}
		}
		bt.bLevel[t] = uint8(level)
		bt.reset[t] = mask
	}
	return bt
}

// evalSpecTable is evalSpec as it ran over a boundary table: the same
// renewal recursion, with the levels checkpointed and the replay sums
// reset after each interval read from the table.
func evalSpecTable(e *Evaluator, cl analytic.ChunkLayout, bt *boundaryTable, w float64) float64 {
	a := e.intervalAttempt(cl, w/float64(bt.n1))
	if a.pi <= 0 {
		return math.Inf(1)
	}
	L := len(e.p.Levels)
	var back [MaxLevels]float64
	var total xmath.Accumulator
	for t := 0; t < bt.n1; t++ {
		replay := 0.0
		for l := 1; l < L; l++ {
			replay += e.shares[l] * back[l]
		}
		et := (a.s0 + a.pfq*replay + a.sdp*e.rec1) / a.pi
		for l := 0; l < int(bt.bLevel[t]); l++ {
			et += e.ckpts[l]
		}
		if math.IsNaN(et) || math.IsInf(et, 1) {
			return math.Inf(1)
		}
		total.Add(et)
		rm := bt.reset[t]
		for l := 1; l < L; l++ {
			if rm&(1<<uint(l)) != 0 {
				back[l] = 0
			} else {
				back[l] += et
			}
		}
	}
	return total.Value()
}

// TestEvalSpecCounterParity asserts the countdown-counter walk of
// evalSpec returns the table walk's bits on a seeded random sample:
// L = 1..4 at ×10 scatter, random nested counts (branching factors
// 1..12), random m in 1..64, and W from far below the first-order
// period to far above it, where the attempt probability underflows
// (Π = 0) or an interval's expected time overflows, so both diverging
// +Inf exits are covered. ExpectedTime, the public path over the same
// walk, is checked on every draw too.
func TestEvalSpecCounterParity(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 1))
	var finite, zeroPi, overflow int
	for levels := 1; levels <= MaxLevels; levels++ {
		for i := 0; i < 150; i++ {
			p := scatteredParams(t, rng, levels, 10)
			ev, err := NewEvaluator(p)
			if err != nil {
				t.Fatal(err)
			}
			branch := make([]int, levels-1)
			for d := range branch {
				branch[d] = 1 + rng.IntN(12)
			}
			counts := make([]int, levels)
			fillCounts(counts, branch)
			m := 1 + rng.IntN(64)
			cl := ev.layout(m)
			bt := newBoundaryTable(counts)
			// W spans 10⁻³..10⁶ times the first-order period: the top
			// decades drive λ·W/n_1 past the point where Π vanishes.
			oef, orw := p.FirstOrder(counts, m)
			guess := xmath.SqrtRatio(oef, orw)
			for j := 0; j < 8; j++ {
				w := guess * math.Pow(10, -3+9*rng.Float64())
				label := fmt.Sprintf("L=%d #%d n=%v m=%d W=%v", levels, i, counts, m, w)
				got, want := ev.evalSpec(cl, counts, w), evalSpecTable(ev, cl, bt, w)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: counters %v (bits %x), table %v (bits %x)",
						label, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				et, err := ev.ExpectedTime(Spec{W: w, Counts: counts, M: m})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if math.Float64bits(et) != math.Float64bits(want) {
					t.Fatalf("%s: ExpectedTime %v, table %v", label, et, want)
				}
				switch a := ev.intervalAttempt(cl, w/float64(counts[0])); {
				case !math.IsInf(want, 1):
					finite++
				case a.pi <= 0:
					zeroPi++
				default:
					overflow++
				}
			}
		}
	}
	if finite == 0 || zeroPi == 0 || overflow == 0 {
		t.Fatalf("sample misses a case: %d finite, %d with Π = 0, %d overflowing", finite, zeroPi, overflow)
	}
}
