package harness

import (
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"respat/internal/core"
	"respat/internal/platform"
	"respat/internal/sched"
)

// campaignCounts are the worker counts the determinism tests compare.
func campaignCounts() []int { return []int{1, 2, runtime.GOMAXPROCS(0)} }

// TestFig6DeterministicAcrossCampaignWorkers asserts the campaign
// scheduler's core guarantee: for a fixed seed, every cell's row is
// bit-identical regardless of how many cells run concurrently.
func TestFig6DeterministicAcrossCampaignWorkers(t *testing.T) {
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Patterns: 10, Runs: 6, Seed: 11, Workers: 1}
	var ref []Fig6Row
	for i, workers := range campaignCounts() {
		o.CampaignWorkers = workers
		rows, err := Fig6([]platform.Platform{hera}, o)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = rows
			continue
		}
		if !reflect.DeepEqual(rows, ref) {
			t.Errorf("CampaignWorkers=%d rows differ from sequential", workers)
		}
	}
}

// TestRateSweepDeterministicAcrossCampaignWorkers covers the Figure 9
// driver, whose cells differ in both rate factors and family.
func TestRateSweepDeterministicAcrossCampaignWorkers(t *testing.T) {
	o := Options{Patterns: 8, Runs: 5, Seed: 3, Workers: 1}
	pairs := Grid([]float64{0.5, 1.5})
	kinds := []core.Kind{core.PD, core.PDMV}
	var ref []RatePoint
	for i, workers := range campaignCounts() {
		o.CampaignWorkers = workers
		pts, err := RateSweep(5000, pairs, kinds, o)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = pts
			continue
		}
		if !reflect.DeepEqual(pts, ref) {
			t.Errorf("CampaignWorkers=%d points differ from sequential", workers)
		}
	}
}

// TestWeakScalingDeterministicAcrossCampaignWorkers covers the
// Figures 7/8 driver.
func TestWeakScalingDeterministicAcrossCampaignWorkers(t *testing.T) {
	o := Options{Patterns: 8, Runs: 5, Seed: 5, Workers: 1}
	var ref []WeakRow
	for i, workers := range campaignCounts() {
		o.CampaignWorkers = workers
		rows, err := WeakScaling([]int{1 << 10, 1 << 12}, 300, 15, []core.Kind{core.PD, core.PDMV}, o)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			ref = rows
			continue
		}
		if !reflect.DeepEqual(rows, ref) {
			t.Errorf("CampaignWorkers=%d rows differ from sequential", workers)
		}
	}
}

// TestCellSeedsDistinct: distinct cells get decorrelated seeds, and the
// derivation is a pure function of (Seed, index).
func TestCellSeedsDistinct(t *testing.T) {
	o := Options{Seed: 9}
	seen := map[uint64]int{}
	for i := 0; i < 64; i++ {
		s := o.cellSeed(i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("cells %d and %d share seed %d", prev, i, s)
		}
		seen[s] = i
		if s != o.cellSeed(i) {
			t.Fatalf("cellSeed(%d) not deterministic", i)
		}
	}
}

// TestRunCellsReportsFirstErrorInCellOrder: whichever cell fails first
// in wall-clock time, the reported error is the lowest-indexed one,
// matching a sequential driver.
func TestRunCellsReportsFirstErrorInCellOrder(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for _, workers := range campaignCounts() {
		err := sched.RunCells(8, workers, func(i int) error {
			switch i {
			case 2:
				return errLow
			case 6:
				return errHigh
			default:
				return nil
			}
		})
		if err != errLow {
			t.Errorf("workers=%d: err = %v, want %v", workers, err, errLow)
		}
	}
}

// TestRunCellsRunsEveryCellOnce covers the pool bookkeeping.
func TestRunCellsRunsEveryCellOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		var hits [23]atomic.Int32
		if err := sched.RunCells(len(hits), workers, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := range hits {
			if n := hits[i].Load(); n != 1 {
				t.Errorf("workers=%d: cell %d ran %d times", workers, i, n)
			}
		}
	}
}
