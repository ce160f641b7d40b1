package multilevel

import (
	"errors"
	"fmt"
	"math"

	"respat/internal/engine"
	"respat/internal/faults"
)

// Storage persists checkpoints across the hierarchy; levels are
// 1-based, cheapest first, mirroring Params.Levels.
type Storage interface {
	Save(level int, data []byte) error
	Load(level int) ([]byte, error)
}

// MemStorage keeps every level in process memory, the multilevel
// analogue of engine.MemStorage.
type MemStorage struct {
	snaps [][]byte
}

// NewMemStorage sizes an in-memory store for a hierarchy of levels.
func NewMemStorage(levels int) *MemStorage {
	return &MemStorage{snaps: make([][]byte, levels)}
}

// Save stores a copy of data at the given level.
func (s *MemStorage) Save(level int, data []byte) error {
	if level < 1 || level > len(s.snaps) {
		return fmt.Errorf("multilevel: storage level %d outside 1..%d", level, len(s.snaps))
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.snaps[level-1] = cp
	return nil
}

// Load returns a copy of the checkpoint at the given level.
func (s *MemStorage) Load(level int) ([]byte, error) {
	if level < 1 || level > len(s.snaps) {
		return nil, fmt.Errorf("multilevel: storage level %d outside 1..%d", level, len(s.snaps))
	}
	if s.snaps[level-1] == nil {
		return nil, fmt.Errorf("multilevel: no checkpoint at level %d", level)
	}
	return append([]byte(nil), s.snaps[level-1]...), nil
}

// EngineConfig assembles a multilevel runtime run, the hierarchy
// analogue of engine.Config: it protects a real engine.Application
// with per-level checkpoints, verified silent-error detection and
// level-aware rollback.
type EngineConfig struct {
	App    engine.Application
	Params Params
	Spec   Spec
	// Patterns is the number of pattern instances to execute.
	Patterns int
	// TargetWork, when positive, runs instances until the cumulative
	// useful work reaches TargetWork seconds — the stopping rule that
	// keeps runs comparable when Boundary swaps mix pattern lengths.
	TargetWork float64
	// Storage backs the checkpoint hierarchy; nil selects a MemStorage.
	Storage Storage
	// FailStop and Silent supply error arrivals on exposure clocks;
	// nil means no errors of that type.
	FailStop faults.Source
	Silent   faults.Source
	// LevelDraw drives the fail-stop level classification (the q
	// shares); nil seeds a fresh deterministic stream.
	LevelDraw *faults.Bernoulli
	// Corrupt applies one silent corruption to the application; nil
	// leaves state untouched (the corruption is still tracked for
	// oracle detection).
	Corrupt func(app engine.Application) error
	// Guaranteed verifies at level-1 interval ends; nil selects the
	// oracle flagging exactly the injected corruptions.
	Guaranteed engine.Verifier
	// Partial verifies at interior chunk boundaries; nil selects an
	// oracle detecting injected corruptions with the interior recall.
	Partial engine.Verifier
	// Detect drives oracle partial detection; nil seeds a fresh
	// deterministic stream.
	Detect *faults.Bernoulli
	// Boundary, if non-nil, is called after every completed pattern
	// instance with the instance count and a report snapshot.
	// Returning a non-nil spec swaps the runtime onto it from the next
	// instance — the multilevel swap point for an adaptive re-planning
	// loop (the report carries the per-source exposure clocks such a
	// loop needs); the pattern in flight is never altered. Returning
	// an error aborts the run.
	Boundary func(done int, rep Report) (*Spec, error)
}

// Counters tallies the events of a multilevel run (or, summed, of a
// simulation campaign).
type Counters struct {
	FailStop   int64 // fail-stop errors injected
	Silent     int64 // silent errors injected
	PartVerifs int64 // completed interior verifications
	GuarVerifs int64 // completed guaranteed verifications
	// DetectByPart and DetectByGuar split detected corruptions by the
	// verification class that caught them.
	DetectByPart int64
	DetectByGuar int64
	// SilentRecs counts rollbacks to the level-1 checkpoint after a
	// verification alarm.
	SilentRecs int64
	// Ckpts[l] counts committed level-(l+1) checkpoints; Recs[l] counts
	// recoveries from a level-(l+1) fail-stop error.
	Ckpts [MaxLevels]int64
	Recs  [MaxLevels]int64
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.FailStop += o.FailStop
	c.Silent += o.Silent
	c.PartVerifs += o.PartVerifs
	c.GuarVerifs += o.GuarVerifs
	c.DetectByPart += o.DetectByPart
	c.DetectByGuar += o.DetectByGuar
	c.SilentRecs += o.SilentRecs
	for l := range c.Ckpts {
		c.Ckpts[l] += o.Ckpts[l]
		c.Recs[l] += o.Recs[l]
	}
}

// Report summarises a multilevel runtime run.
type Report struct {
	// Time is the total virtual wall-clock in seconds; Work the useful
	// work completed; Overhead (Time - Work) / Work.
	Time     float64
	Work     float64
	Overhead float64
	// Counters are the run's event counters.
	Counters
	// PlanSwaps counts the spec swaps performed by the Boundary hook.
	PlanSwaps int64
	// FailStopExposure and SilentExposure are the exposure seconds of
	// the two error clocks — the rate-estimation denominators an
	// adaptive observer diffs at boundaries.
	FailStopExposure float64
	SilentExposure   float64
	// FinalTainted reports whether the final state carries an
	// undetected corruption (only possible with an imperfect
	// user-supplied guaranteed verifier).
	FinalTainted bool
}

// RunEngine executes pattern instances under the multilevel protocol
// until the stopping rule is met and returns the report. Errors strike
// computations only (the model's Sections 3-4 assumption); a
// fail-stop error draws its level, restores the corresponding
// checkpoint and replays from the most recent boundary of that level
// or above; a detected silent error restores the level-1 checkpoint.
func RunEngine(cfg EngineConfig) (Report, error) {
	if cfg.App == nil {
		return Report{}, errors.New("multilevel: nil App")
	}
	if cfg.Patterns <= 0 && cfg.TargetWork <= 0 {
		return Report{}, fmt.Errorf("multilevel: need Patterns > 0 or TargetWork > 0 (got %d, %v)",
			cfg.Patterns, cfg.TargetWork)
	}
	if math.IsNaN(cfg.TargetWork) || math.IsInf(cfg.TargetWork, 0) {
		return Report{}, fmt.Errorf("multilevel: TargetWork = %v, need finite", cfg.TargetWork)
	}
	e, err := NewExecutor(cfg)
	if err != nil {
		return Report{}, err
	}
	e.Reset(cfg.FailStop, cfg.Silent)
	return e.Run(cfg.Patterns)
}

// Executor runs the multilevel protocol for one configuration, the
// hierarchy analogue of engine.Executor: built once (NewExecutor),
// re-armed per run with new arrival sources (Reset) and run (Run).
// With no App it is the multilevel Monte-Carlo simulator
// (internal/sim): no Snapshot, Restore or Storage calls, and nil
// verifiers are the oracles. An Executor is not safe for concurrent
// use.
type Executor struct {
	// Hot protocol state first.
	fail, silent faults.Clock
	now          float64
	layout       Layout
	// Ground-truth corruption tracking, as in engine.Executor: the
	// executor injects the corruptions, so it knows which snapshots are
	// tainted; protocol decisions still come only from the verifiers.
	corrupted bool
	tainted   [MaxLevels]bool // per storage level
	cnt       Counters
	err       error // first application, storage or verifier error
	swaps     int64
	home      Layout // the configured spec's layout
	cfg       EngineConfig
}

// NewExecutor validates the parameters and the spec and flattens the
// spec into its boundary layout. It reads neither FailStop, Silent nor
// Patterns: Reset supplies the sources and Run the instance count. Nil
// LevelDraw and Detect streams are seeded fresh; with an App, a nil
// Storage selects a MemStorage.
func NewExecutor(cfg EngineConfig) (*Executor, error) {
	layout, err := cfg.Params.Layout(cfg.Spec)
	if err != nil {
		return nil, err
	}
	if cfg.Detect == nil {
		cfg.Detect = faults.NewBernoulli(0x5eed, 0xdee7)
	}
	if cfg.LevelDraw == nil {
		cfg.LevelDraw = faults.NewBernoulli(0x1e7e1, 0xd4a3)
	}
	if cfg.App != nil && cfg.Storage == nil {
		cfg.Storage = NewMemStorage(len(cfg.Params.Levels))
	}
	return &Executor{layout: layout, home: layout, cfg: cfg}, nil
}

// Reset re-arms the executor for a new run on the given arrival
// sources (nil means no errors of that type): time, counters and
// corruption state start from zero, and a spec swapped in by the
// previous run's Boundary hook is swapped back out. It does not
// allocate.
func (e *Executor) Reset(failStop, silent faults.Source) {
	if failStop == nil {
		failStop = faults.Never{}
	}
	if silent == nil {
		silent = faults.Never{}
	}
	e.fail = faults.NewClock(failStop)
	e.silent = faults.NewClock(silent)
	e.now = 0
	e.corrupted = false
	e.tainted = [MaxLevels]bool{}
	e.cnt = Counters{}
	e.err = nil
	e.layout = e.home
	e.swaps = 0
}

// Run executes pattern instances from the state Reset left until the
// stopping rule is met — patterns instances (when positive) and the
// configured TargetWork (when positive) — and returns the report. Call
// Reset before every Run.
func (e *Executor) Run(patterns int) (Report, error) {
	if e.cfg.App != nil {
		e.initialCheckpoint()
	}
	var work float64
	for done := 0; e.err == nil && e.more(patterns, done, work); done++ {
		e.runPattern()
		if e.err != nil {
			break
		}
		work += e.layout.Spec.W
		if e.cfg.Boundary != nil {
			e.boundary(patterns, done+1, work)
		}
	}
	if e.err != nil {
		return Report{}, e.err
	}
	rep := e.report(work)
	rep.Overhead = (rep.Time - rep.Work) / rep.Work
	rep.FinalTainted = e.corrupted
	return rep, nil
}

func (e *Executor) more(patterns, done int, work float64) bool {
	if patterns > 0 && done < patterns {
		return true
	}
	return e.cfg.TargetWork > 0 && work < e.cfg.TargetWork
}

// boundary calls the Boundary hook after done instances and installs
// the spec it returns.
func (e *Executor) boundary(patterns, done int, work float64) {
	next, err := e.cfg.Boundary(done, e.report(work))
	if err != nil {
		e.err = err
		return
	}
	if next == nil {
		return
	}
	layout, err := e.cfg.Params.Layout(*next)
	if err != nil {
		// Surface a broken swap spec no matter where the run ends,
		// matching engine.Run's final-boundary contract.
		e.err = err
		return
	}
	if !e.more(patterns, done, work) {
		return
	}
	e.layout = layout
	e.swaps++
}

func (e *Executor) report(work float64) Report {
	return Report{
		Time: e.now, Work: work, Counters: e.cnt, PlanSwaps: e.swaps,
		FailStopExposure: e.fail.Exposure(), SilentExposure: e.silent.Exposure(),
	}
}

// runPattern executes one pattern instance: n_1 level-1 intervals,
// each of m chunks, with level-aware rollback.
func (e *Executor) runPattern() {
	p := &e.cfg.Params
	n1 := e.layout.Spec.Counts[0]
	t := 0
	for t < n1 {
		if lvl, ok := e.runInterval(); !ok {
			// Fail-stop of level lvl: recover and resume from the most
			// recent level-≥lvl boundary.
			e.recover(lvl)
			t = e.layout.RollbackTo(lvl, t)
			continue
		}
		// Clean guaranteed verification: commit the boundary's
		// checkpoint stack.
		var snap []byte
		if e.cfg.App != nil {
			snap = e.snapshot()
		}
		for l, top := 1, e.layout.BoundaryLevel(t); l <= top; l++ {
			e.now += p.Levels[l-1].Ckpt
			e.cnt.Ckpts[l-1]++
			e.tainted[l-1] = e.corrupted
			if e.cfg.App != nil {
				e.save(l, snap)
			}
		}
		t++
	}
}

// recover pays the recovery of a level-lvl fail-stop error and restores
// that level's checkpoint. Recovering at level lvl re-establishes the
// levels below it from the same state (R_lvl includes that cost by
// definition).
func (e *Executor) recover(lvl int) {
	e.now += e.cfg.Params.Levels[lvl-1].Rec
	e.cnt.Recs[lvl-1]++
	for l := 1; l < lvl; l++ {
		e.tainted[l-1] = e.tainted[lvl-1]
	}
	e.corrupted = e.tainted[lvl-1]
	if e.cfg.App != nil {
		e.restore(lvl)
	}
}

// runInterval executes one level-1 interval until it passes its
// closing guaranteed verification. It returns ok=false with the error
// level when a fail-stop interrupts it; detected silent errors are
// handled internally (level-1 rollback and retry).
func (e *Executor) runInterval() (level int, ok bool) {
	p := &e.cfg.Params
	m := len(e.layout.Chunks)
	for {
		j := 0
		for j < m {
			if !e.chunk(e.layout.Chunks[j]) {
				return p.PickLevel(e.cfg.LevelDraw.Rng.Float64()), false
			}
			if j < m-1 {
				// Interior verification.
				e.now += e.layout.InteriorCost
				e.cnt.PartVerifs++
				var alarm bool
				if e.cfg.Partial == nil {
					alarm = e.corrupted && e.cfg.Detect.Hit(e.layout.InteriorRecall)
				} else {
					alarm = e.check(e.cfg.Partial)
				}
				if alarm {
					e.cnt.DetectByPart++
					e.silentRollback()
					j = 0
					continue
				}
			}
			j++
		}
		// Closing guaranteed verification.
		e.now += p.GuarVer
		e.cnt.GuarVerifs++
		alarm := e.corrupted
		if e.cfg.Guaranteed != nil {
			alarm = e.check(e.cfg.Guaranteed)
		}
		if !alarm {
			return 0, true
		}
		e.cnt.DetectByGuar++
		e.silentRollback()
	}
}

// silentRollback restores the level-1 checkpoint after a verification
// alarm.
func (e *Executor) silentRollback() {
	e.now += e.cfg.Params.Levels[0].Rec
	e.cnt.SilentRecs++
	e.corrupted = e.tainted[0]
	if e.cfg.App != nil {
		e.restore(1)
	}
}

// chunk executes w seconds of computation exposed to both error
// processes; it reports false when a fail-stop interrupts it (partial
// progress dies with the machine, so the application never performs
// it).
func (e *Executor) chunk(w float64) bool {
	remaining := w
	for remaining > 0 {
		fdt, fHit := e.fail.Within(remaining)
		sdt, sHit := e.silent.Within(remaining)
		if sHit && (!fHit || sdt <= fdt) {
			if e.cfg.App != nil {
				e.corrupt(sdt)
			}
			e.silent.Consume()
			e.fail.Advance(sdt)
			e.now += sdt
			remaining -= sdt
			e.corrupted = true
			e.cnt.Silent++
			continue
		}
		if fHit {
			e.fail.Consume()
			e.silent.Advance(fdt)
			e.now += fdt
			e.cnt.FailStop++
			return false
		}
		if e.cfg.App != nil {
			e.advance(remaining)
		}
		e.fail.Advance(remaining)
		e.silent.Advance(remaining)
		e.now += remaining
		remaining = 0
	}
	return true
}

// The application-facing helpers below record the first error in
// e.err and do nothing once it is set: the instance in flight then
// completes as a run with no application would, and Run returns the
// error at its end.

// initialCheckpoint persists the pristine initial state at every level.
func (e *Executor) initialCheckpoint() {
	snap := e.snapshot()
	for l := 1; l <= len(e.cfg.Params.Levels); l++ {
		e.save(l, snap)
	}
}

func (e *Executor) advance(w float64) {
	if e.err == nil {
		e.err = e.cfg.App.Advance(w)
	}
}

// corrupt performs the w seconds of computation preceding a silent
// error, then applies the corruption.
func (e *Executor) corrupt(w float64) {
	e.advance(w)
	if e.err == nil && e.cfg.Corrupt != nil {
		e.err = e.cfg.Corrupt(e.cfg.App)
	}
}

// check runs a user verifier and reports an alarm.
func (e *Executor) check(v engine.Verifier) bool {
	if e.err != nil {
		return false
	}
	clean, err := v.Check(e.cfg.App)
	e.err = err
	return err == nil && !clean
}

func (e *Executor) snapshot() []byte {
	if e.err != nil {
		return nil
	}
	snap, err := e.cfg.App.Snapshot()
	e.err = err
	return snap
}

func (e *Executor) save(level int, snap []byte) {
	if e.err == nil {
		e.err = e.cfg.Storage.Save(level, snap)
	}
}

// restore reloads the application from the level-lvl checkpoint and
// re-establishes every level below it from the same state.
func (e *Executor) restore(lvl int) {
	if e.err != nil {
		return
	}
	snap, err := e.cfg.Storage.Load(lvl)
	if err == nil {
		err = e.cfg.App.Restore(snap)
	}
	for l := 1; l < lvl && err == nil; l++ {
		err = e.cfg.Storage.Save(l, snap)
	}
	e.err = err
}
