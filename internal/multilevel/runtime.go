package multilevel

import (
	"fmt"

	"respat/internal/engine"
	"respat/internal/faults"
)

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
	// Storage backs the checkpoint hierarchy, levels 1..L; nil selects
	// an engine.MemStorage.
	Storage engine.Storage
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
	engine.Outcome
	// Counters are the run's event counters.
	Counters
}

// RunEngine executes pattern instances under the multilevel protocol
// until the stopping rule is met and returns the report. Errors strike
// computations only (the model's Sections 3-4 assumption); a
// fail-stop error draws its level, restores the corresponding
// checkpoint and replays from the most recent boundary of that level
// or above; a detected silent error restores the level-1 checkpoint.
func RunEngine(cfg EngineConfig) (Report, error) {
	if err := engine.CheckRun(cfg.App, cfg.Patterns, cfg.TargetWork); err != nil {
		return Report{}, fmt.Errorf("multilevel: %w", err)
	}
	e, err := NewExecutor(cfg)
	if err != nil {
		return Report{}, err
	}
	e.Reset(cfg.FailStop, cfg.Silent)
	return e.Run(cfg.Patterns)
}

// Executor runs the multilevel protocol for one configuration on the
// shared engine.Runtime: a fail-stop error draws its level, restores
// that level's checkpoint and replays from the most recent boundary of
// that level or above, and a detected silent error restores the level-1
// checkpoint. It is built once (NewExecutor), re-armed per run with
// new arrival sources (Reset) and run (Run). With no App it is the
// multilevel Monte-Carlo simulator (internal/sim). An Executor is not
// safe for concurrent use.
type Executor struct {
	engine.Runtime
	layout Layout
	cnt    Counters
	home   Layout // the configured spec's layout
	cfg    EngineConfig
}

// NewExecutor validates the parameters and the spec and flattens the
// spec into its boundary layout. It reads neither FailStop, Silent nor
// Patterns: Reset supplies the sources and Run the instance count. Nil
// LevelDraw and Detect streams are seeded fresh; with an App, a nil
// Storage selects an engine.MemStorage.
func NewExecutor(cfg EngineConfig) (*Executor, error) {
	layout, err := cfg.Params.Layout(cfg.Spec)
	if err != nil {
		return nil, err
	}
	if cfg.LevelDraw == nil {
		cfg.LevelDraw = faults.NewBernoulli(0x1e7e1, 0xd4a3)
	}
	return &Executor{
		Runtime: engine.NewRuntime(len(cfg.Params.Levels), cfg.App, cfg.Corrupt, cfg.Storage, cfg.Detect, cfg.TargetWork),
		layout:  layout, home: layout, cfg: cfg,
	}, nil
}

// Reset re-arms the executor for a new run on the given arrival
// sources (nil means no errors of that type): time, counters and
// corruption state start from zero, and a spec swapped in by the
// previous run's Boundary hook is swapped back out. It does not
// allocate.
func (e *Executor) Reset(failStop, silent faults.Source) {
	e.Runtime.Reset(failStop, silent)
	e.cnt = Counters{}
	e.layout = e.home
}

// Run executes pattern instances from the state Reset left until the
// stopping rule is met — patterns instances (when positive) and the
// configured TargetWork (when positive) — and returns the report. Call
// Reset before every Run.
func (e *Executor) Run(patterns int) (Report, error) {
	out, err := e.Loop(patterns, e.runPattern, e.boundary)
	if err != nil {
		return Report{}, err
	}
	return e.report(out), nil
}

// boundary calls the Boundary hook after done instances and installs
// the spec it returns when another instance will run. A broken swap
// spec surfaces no matter where the run ends, matching engine.Run's
// final-boundary contract.
func (e *Executor) boundary(done int, work float64, more bool) (bool, error) {
	if e.cfg.Boundary == nil {
		return false, nil
	}
	next, err := e.cfg.Boundary(done, e.report(e.Progress(work)))
	if err != nil || next == nil {
		return false, err
	}
	layout, err := e.cfg.Params.Layout(*next)
	if err != nil || !more {
		return false, err
	}
	e.layout = layout
	return true, nil
}

// report completes an outcome with the run's event counters.
func (e *Executor) report(out engine.Outcome) Report {
	cnt := e.cnt
	cnt.FailStop, cnt.Silent = e.Arrivals()
	return Report{Outcome: out, Counters: cnt}
}

// runPattern executes one pattern instance — n_1 level-1 intervals,
// each of m chunks, with level-aware rollback — and returns its work.
func (e *Executor) runPattern() float64 {
	p := &e.cfg.Params
	n1 := e.layout.Spec.Counts[0]
	t := 0
	for t < n1 {
		if lvl, ok := e.runInterval(); !ok {
			// Fail-stop of level lvl: recover and resume from the most
			// recent level-≥lvl boundary.
			e.Spend(p.Levels[lvl-1].Rec)
			e.cnt.Recs[lvl-1]++
			e.Rollback(lvl)
			t = e.layout.RollbackTo(lvl, t)
			continue
		}
		// Clean guaranteed verification: commit the boundary's
		// checkpoint stack.
		top := e.layout.BoundaryLevel(t)
		for l := 1; l <= top; l++ {
			e.Spend(p.Levels[l-1].Ckpt)
			e.cnt.Ckpts[l-1]++
		}
		e.Checkpoint(top)
		t++
	}
	return e.layout.Spec.W
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
			if !e.Chunk(e.layout.Chunks[j]) {
				return p.PickLevel(e.cfg.LevelDraw.Rng.Float64()), false
			}
			if j < m-1 {
				// Interior verification.
				e.Spend(e.layout.InteriorCost)
				e.cnt.PartVerifs++
				if e.Verify(e.cfg.Partial, e.layout.InteriorRecall) {
					e.cnt.DetectByPart++
					e.silentRollback()
					j = 0
					continue
				}
			}
			j++
		}
		// Closing guaranteed verification.
		e.Spend(p.GuarVer)
		e.cnt.GuarVerifs++
		if !e.Verify(e.cfg.Guaranteed, 1) {
			return 0, true
		}
		e.cnt.DetectByGuar++
		e.silentRollback()
	}
}

// silentRollback restores the level-1 checkpoint after a verification
// alarm.
func (e *Executor) silentRollback() {
	e.Spend(e.cfg.Params.Levels[0].Rec)
	e.cnt.SilentRecs++
	e.Rollback(1)
}
