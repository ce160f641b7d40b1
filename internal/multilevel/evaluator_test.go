package multilevel

import (
	"math"
	"sync"
	"testing"

	"respat/internal/platform"
)

// TestEvaluatorConcurrentUse asserts the concurrency contract: one
// fresh Evaluator shared by 8 goroutines returns, through ExpectedTime
// and Overhead, the bits a sequential pass on a second evaluator
// returns at every point of an L=3 (counts, m, W) grid. The shared
// evaluator starts fresh, so one that memoised chunk layouts would
// write its memo from every goroutine at once, which go test -race
// reports. Each goroutine starts at its own offset in the grid and so
// re-evaluates every layout after others.
func TestEvaluatorConcurrentUse(t *testing.T) {
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	p, err := FromPlatform(hera, 3)
	if err != nil {
		t.Fatal(err)
	}
	var grid []Spec
	for b0 := 1; b0 <= 4; b0++ {
		for b1 := 1; b1 <= 3; b1++ {
			counts := make([]int, 3)
			fillCounts(counts, []int{b0, b1})
			for m := 1; m <= 8; m++ {
				for _, w := range []float64{2000, 30000, 200000} {
					grid = append(grid, Spec{W: w, Counts: counts, M: m})
				}
			}
		}
	}
	eval := func(ev *Evaluator, s Spec) ([2]float64, error) {
		et, err := ev.ExpectedTime(s)
		if err != nil {
			return [2]float64{}, err
		}
		h, err := ev.Overhead(s)
		return [2]float64{et, h}, err
	}
	newEv := func() *Evaluator {
		ev, err := NewEvaluator(p)
		if err != nil {
			t.Fatal(err)
		}
		return ev
	}

	seq := newEv()
	want := make([][2]float64, len(grid))
	for i, s := range grid {
		if want[i], err = eval(seq, s); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 8
	shared := newEv()
	got := make([][][2]float64, workers)
	var wg sync.WaitGroup
	for g := range workers {
		got[g] = make([][2]float64, len(grid))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range grid {
				i := (j + g*len(grid)/workers) % len(grid)
				var err error
				if got[g][i], err = eval(shared, grid[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i, s := range grid {
			for f, name := range []string{"ExpectedTime", "Overhead"} {
				if math.Float64bits(got[g][i][f]) != math.Float64bits(want[i][f]) {
					t.Fatalf("goroutine %d: %s n=%v m=%d W=%v: %v, sequential %v",
						g, name, s.Counts, s.M, s.W, got[g][i][f], want[i][f])
				}
			}
		}
	}
}
