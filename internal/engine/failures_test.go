package engine

import (
	"errors"
	"testing"

	"respat/internal/core"
	"respat/internal/faults"
)

// failingStorage wraps MemStorage and fails after a countdown, so
// storage-layer errors surface mid-protocol.
type failingStorage struct {
	MemStorage
	saveBudget int
	loadBudget int
}

var errStorage = errors.New("storage broke")

func (s *failingStorage) Save(level int, data []byte) error {
	if s.saveBudget == 0 {
		return errStorage
	}
	s.saveBudget--
	return s.MemStorage.Save(level, data)
}

func (s *failingStorage) Load(level int) ([]byte, error) {
	if s.loadBudget == 0 {
		return nil, errStorage
	}
	s.loadBudget--
	return s.MemStorage.Load(level)
}

func TestStorageSaveErrorPropagates(t *testing.T) {
	c := testCosts()
	p := layout(t, core.PD, 100, 1, 1, 1)
	// Budget 2 allows the initial two saves; the first memory
	// checkpoint then fails.
	st := &failingStorage{saveBudget: 2, loadBudget: 1 << 30}
	_, err := Run(Config{App: &counterApp{}, Pattern: p, Costs: c, Patterns: 1, Storage: st})
	if !errors.Is(err, errStorage) {
		t.Errorf("err = %v, want errStorage", err)
	}
}

func TestStorageLoadErrorPropagates(t *testing.T) {
	c := testCosts()
	p := layout(t, core.PD, 100, 1, 1, 1)
	st := &failingStorage{saveBudget: 1 << 30, loadBudget: 0}
	_, err := Run(Config{
		App: &counterApp{}, Pattern: p, Costs: c, Patterns: 1, Storage: st,
		FailStop: faults.NewTrace([]float64{10}), // forces a disk load
	})
	if !errors.Is(err, errStorage) {
		t.Errorf("err = %v, want errStorage", err)
	}
}

// brokenApp fails its Advance after a countdown.
type brokenApp struct {
	counterApp
	budget int
}

var errApp = errors.New("app broke")

func (a *brokenApp) Advance(w float64) error {
	if a.budget == 0 {
		return errApp
	}
	a.budget--
	return a.counterApp.Advance(w)
}

func TestApplicationErrorPropagates(t *testing.T) {
	c := testCosts()
	p := layout(t, core.PDMV, 400, 2, 2, c.Recall)
	_, err := Run(Config{App: &brokenApp{budget: 2}, Pattern: p, Costs: c, Patterns: 1})
	if !errors.Is(err, errApp) {
		t.Errorf("err = %v, want errApp", err)
	}
}

func TestVerifierErrorPropagates(t *testing.T) {
	c := testCosts()
	p := layout(t, core.PD, 100, 1, 1, 1)
	boom := VerifierFunc(func(Application) (bool, error) { return false, errApp })
	_, err := Run(Config{
		App: &counterApp{}, Pattern: p, Costs: c, Patterns: 1,
		Guaranteed: boom,
	})
	if !errors.Is(err, errApp) {
		t.Errorf("err = %v, want errApp", err)
	}
}

func TestCorruptCallbackErrorPropagates(t *testing.T) {
	c := testCosts()
	p := layout(t, core.PD, 100, 1, 1, 1)
	_, err := Run(Config{
		App: &counterApp{}, Pattern: p, Costs: c, Patterns: 1,
		Silent:  faults.NewTrace([]float64{10}),
		Corrupt: func(Application) error { return errApp },
	})
	if !errors.Is(err, errApp) {
		t.Errorf("err = %v, want errApp", err)
	}
}

// snapshotFailApp fails serialisation, which must abort the initial
// checkpoint.
type snapshotFailApp struct{ counterApp }

func (snapshotFailApp) Snapshot() ([]byte, error) { return nil, errApp }

func TestSnapshotErrorPropagates(t *testing.T) {
	c := testCosts()
	p := layout(t, core.PD, 100, 1, 1, 1)
	_, err := Run(Config{App: &snapshotFailApp{}, Pattern: p, Costs: c, Patterns: 1})
	if !errors.Is(err, errApp) {
		t.Errorf("err = %v, want errApp", err)
	}
}

// TestFalsePositivePartialVerifierWastesButFinishes: a detector that
// mis-fires exactly once causes one spurious rollback and re-execution
// but the run still completes correctly.
func TestFalsePositivePartialVerifierWastesButFinishes(t *testing.T) {
	c := testCosts()
	p := layout(t, core.PDV, 100, 1, 2, c.Recall)
	fired := false
	flaky := VerifierFunc(func(Application) (bool, error) {
		if !fired {
			fired = true
			return false, nil // spurious alarm
		}
		return true, nil
	})
	app := &counterApp{}
	rep, err := Run(Config{
		App: app, Pattern: p, Costs: c, Patterns: 1, Partial: flaky,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.MemRecs != 1 || rep.DetectByPart != 1 {
		t.Errorf("report: %+v", rep)
	}
	// One spurious segment replay: chunk1 50 + V 1 + RM 3, then the
	// full clean pattern 50+1+50+5+10+20.
	want := 50 + 1 + 3 + (50 + 1 + 50 + 5 + 10 + 20.0)
	if rep.Time != want {
		t.Errorf("time = %v, want %v", rep.Time, want)
	}
	// The wasted 50 s of work were rolled back with the snapshot, so
	// the final state holds exactly the committed work.
	if app.value != 100 {
		t.Errorf("value = %v, want 100", app.value)
	}
}
