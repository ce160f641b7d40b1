package sched

import (
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func workerCounts() []int { return []int{0, 1, 2, 3, 16, runtime.GOMAXPROCS(0)} }

// TestRunCellsRunsEveryCellOnce covers the pool bookkeeping for a
// spread of worker counts, including workers > n.
func TestRunCellsRunsEveryCellOnce(t *testing.T) {
	for _, workers := range workerCounts() {
		var hits [23]atomic.Int32
		if err := RunCells(len(hits), workers, func(i int) error {
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

// TestRunCellsReportsFirstErrorInCellOrder: whichever cell fails first
// in wall-clock time, the reported error is the lowest-indexed one,
// matching a sequential loop.
func TestRunCellsReportsFirstErrorInCellOrder(t *testing.T) {
	errLow := errors.New("low")
	errHigh := errors.New("high")
	for _, workers := range workerCounts() {
		err := RunCells(8, workers, func(i int) error {
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

// TestRunCellsBoundsConcurrency asserts at most `workers` cells are in
// flight simultaneously.
func TestRunCellsBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int32
	if err := RunCells(64, workers, func(i int) error {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		runtime.Gosched()
		inFlight.Add(-1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

// TestMapCollectsInOrder: results land in their own slots regardless of
// execution order.
func TestMapCollectsInOrder(t *testing.T) {
	in := make([]int, 50)
	for i := range in {
		in[i] = i
	}
	for _, workers := range workerCounts() {
		out, err := Map(in, workers, func(i, c int) (int, error) { return c * c, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

// TestMapError: a failing element aborts with its error and nil rows.
func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	rows, err := Map([]int{0, 1, 2}, 2, func(i, c int) (int, error) {
		if c == 1 {
			return 0, boom
		}
		return c, nil
	})
	if err != boom {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	if rows != nil {
		t.Fatalf("rows = %v, want nil", rows)
	}
}

// TestRunCellsCtxSharesContextPerWorker checks each worker builds
// exactly one context and threads it through every cell it claims.
func TestRunCellsCtxSharesContextPerWorker(t *testing.T) {
	var ctxs atomic.Int64
	n := 64
	seen := make([]int64, n)
	err := RunCellsCtx(n, 4, func() (int64, error) {
		return ctxs.Add(1), nil
	}, func(ctx int64, i int) error {
		seen[i] = ctx
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	built := ctxs.Load()
	if built < 1 || built > 4 {
		t.Fatalf("built %d contexts with 4 workers", built)
	}
	for i, c := range seen {
		if c < 1 || c > built {
			t.Fatalf("cell %d saw context %d of %d", i, c, built)
		}
	}
}

// TestRunCellsCtxCellErrorMidCampaign fails one cell mid-campaign and
// checks the sequential error contract at every worker count: the
// lowest-indexed failing cell's error is reported, and no new cells
// start once the failure is observed.
func TestRunCellsCtxCellErrorMidCampaign(t *testing.T) {
	for _, workers := range workerCounts() {
		errLow := errors.New("low")
		errHigh := errors.New("high")
		var started atomic.Int64
		err := RunCellsCtx(200, workers, func() (struct{}, error) {
			return struct{}{}, nil
		}, func(_ struct{}, i int) error {
			started.Add(1)
			switch i {
			case 90:
				return errLow
			case 150:
				return errHigh
			}
			return nil
		})
		if err != errLow {
			t.Fatalf("workers=%d: err = %v, want %v", workers, err, errLow)
		}
		if workers <= 1 && started.Load() != 91 {
			t.Fatalf("sequential path ran %d cells past the failure", started.Load()-91)
		}
	}
}

// TestRunCellsCtxNewCtxFailure covers the context-construction error
// path: the error surfaces, and cell errors from other workers still
// take precedence over it.
func TestRunCellsCtxNewCtxFailure(t *testing.T) {
	ctxBoom := errors.New("ctx boom")
	// Sequential path: newCtx fails before any cell runs.
	ran := false
	err := RunCellsCtx(5, 1, func() (struct{}, error) {
		return struct{}{}, ctxBoom
	}, func(struct{}, int) error { ran = true; return nil })
	if err != ctxBoom {
		t.Fatalf("sequential err = %v, want %v", err, ctxBoom)
	}
	if ran {
		t.Fatal("cell ran after newCtx failed")
	}
	// Parallel path: every worker's context fails.
	err = RunCellsCtx(50, 4, func() (struct{}, error) {
		return struct{}{}, ctxBoom
	}, func(struct{}, int) error { t.Error("cell ran"); return nil })
	if err != ctxBoom {
		t.Fatalf("parallel err = %v, want %v", err, ctxBoom)
	}
	// Mixed: one worker's context fails but another worker's cell error
	// must win (cell errors are what a sequential loop would surface).
	// The failing constructor waits for cell 0's error so the outcome
	// does not depend on goroutine scheduling.
	cellBoom := errors.New("cell boom")
	var built atomic.Int64
	var cellFailed atomic.Bool
	err = RunCellsCtx(50, 4, func() (struct{}, error) {
		if built.Add(1) == 2 {
			for !cellFailed.Load() {
				runtime.Gosched()
			}
			return struct{}{}, ctxBoom
		}
		return struct{}{}, nil
	}, func(_ struct{}, i int) error {
		if i == 0 {
			cellFailed.Store(true)
			return cellBoom
		}
		return nil
	})
	if err != cellBoom {
		t.Fatalf("mixed err = %v, want cell error %v", err, cellBoom)
	}
}

// TestRunCellsCtxNoGoroutineLeak asserts the pool's goroutines are
// gone after RunCellsCtx returns, on both the clean and error paths.
func TestRunCellsCtxNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 20; round++ {
		fail := round%2 == 1
		RunCellsCtx(100, 8, func() (struct{}, error) {
			return struct{}{}, nil
		}, func(_ struct{}, i int) error {
			if fail && i == 37 {
				return errors.New("boom")
			}
			return nil
		})
	}
	// The waitgroup joins workers before return, but a worker may still
	// be exiting after its Done; on a loaded machine that takes longer
	// than a few yields, so poll against a wall-clock deadline.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d after 20 campaigns", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}
