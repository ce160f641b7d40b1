package engine

import (
	"errors"
	"fmt"
	"math"

	"respat/internal/core"
	"respat/internal/faults"
)

// Runtime is the Section 2 execution model that both protocol
// executors run on: this package's Executor and multilevel.Executor.
// Work runs in chunks exposed to fail-stop and silent errors on
// separate exposure clocks; a silent error corrupts the state until a
// verification catches it, and a fail-stop error loses the chunk in
// flight. The protocols differ only in what an error costs and where
// it rolls back to, which their executors decide with Chunk, Verify,
// Spend, Checkpoint and Rollback.
//
// Runtime also tracks the ground truth: the executor injects the
// corruptions, so it knows which state and which checkpoint levels are
// tainted, while protocol decisions still come only from the
// verifiers. With no application it is the Monte-Carlo simulator's
// model (internal/sim): no Snapshot, Restore or Storage calls, and the
// oracles decide every detection.
//
// The application-facing steps record the first application, storage
// or verifier error and do nothing once it is set: the instance in
// flight then completes as a run with no application would, and Loop
// returns the error at its end.
type Runtime struct {
	// Hot state first.
	fail, silent faults.Clock
	now          float64
	corrupted    bool
	tainted      [MaxLevels]bool // tainted[l-1]: the level-l checkpoint is corrupted
	levels       int
	failStops    int64
	silents      int64
	swaps        int64
	err          error
	rec          func(Event) // timeline recorder (Record), or nil
	segment      int         // segment of the action in flight, for rec
	instance     int         // pattern instance in flight, for rec
	app          Application
	inject       func(Application) error
	storage      Storage
	detect       *faults.Bernoulli
	targetWork   float64
}

// MaxLevels caps the checkpoint levels a Runtime tracks. Four levels
// cover the realistic storage stacks (memory / node-local /
// burst-buffer / parallel file system).
const MaxLevels = 4

// NewRuntime builds the runtime of a protocol with levels (at most
// MaxLevels) checkpoint levels. A nil detect seeds a fresh
// deterministic stream; with an app, a nil storage selects a
// MemStorage.
func NewRuntime(levels int, app Application, corrupt func(Application) error, storage Storage,
	detect *faults.Bernoulli, targetWork float64) Runtime {
	if detect == nil {
		detect = faults.NewBernoulli(0x5eed, 0xdee7)
	}
	if app != nil && storage == nil {
		storage = &MemStorage{}
	}
	return Runtime{levels: levels, app: app, inject: corrupt, storage: storage,
		detect: detect, targetWork: targetWork}
}

// Outcome is the part of a run's report that both protocols share.
type Outcome struct {
	// Time is the total virtual wall-clock in seconds.
	Time float64
	// Work is the useful work completed: the sum of the executed
	// instances' pattern lengths W (instances may differ in length
	// after a Boundary swap).
	Work float64
	// Overhead is (Time - Work) / Work.
	Overhead float64
	// PlanSwaps counts the swaps performed by the Boundary hook.
	PlanSwaps int64
	// FailStopExposure and SilentExposure are the total exposure
	// seconds accumulated on the two error clocks — the denominators an
	// observer needs to estimate arrival rates from the event counters
	// (events per exposure second, not per wall-clock second).
	FailStopExposure float64
	SilentExposure   float64
	// FinalTainted reports whether the final state carries an
	// undetected corruption (only possible with an imperfect
	// user-supplied guaranteed verifier).
	FinalTainted bool
}

// Reset re-arms the runtime for a new run on the given arrival sources
// (nil means no errors of that type): time, counts, corruption and the
// recorded error start from zero. It does not allocate.
func (r *Runtime) Reset(failStop, silent faults.Source) {
	if failStop == nil {
		failStop = faults.Never{}
	}
	if silent == nil {
		silent = faults.Never{}
	}
	r.fail = faults.NewClock(failStop)
	r.silent = faults.NewClock(silent)
	r.now = 0
	r.corrupted = false
	r.tainted = [MaxLevels]bool{}
	r.failStops, r.silents, r.swaps = 0, 0, 0
	r.segment, r.instance = 0, 0
	r.err = nil
}

// Record installs a recorder that receives every timeline event of the
// following runs; nil removes it.
func (r *Runtime) Record(rec func(Event)) { r.rec = rec }

// Loop executes pattern instances from the state Reset left until the
// stopping rule is met — patterns instances (when positive) and the
// target work (when positive) — and returns the run's outcome. With an
// application, the pristine initial state is first checkpointed at
// every level (the "initial data" the first pattern recovers to,
// Section 2.2). instance runs one pattern instance and returns its
// work. boundary follows every completed instance with the instance
// count, the work so far and whether another instance will run; it
// reports whether it swapped the pattern, which it may do only then,
// and an error aborts the run.
func (r *Runtime) Loop(patterns int, instance func() float64,
	boundary func(done int, work float64, more bool) (bool, error)) (Outcome, error) {
	if r.app != nil {
		r.Checkpoint(r.levels)
	}
	var work float64
	for done := 0; r.err == nil && r.more(patterns, done, work); done++ {
		r.instance = done
		w := instance()
		if r.err != nil {
			break
		}
		work += w
		r.emit(EvPatternDone, core.OpDisk)
		var swapped bool
		swapped, r.err = boundary(done+1, work, r.more(patterns, done+1, work))
		if swapped {
			r.swaps++
		}
	}
	if r.err != nil {
		return Outcome{}, r.err
	}
	out := r.Progress(work)
	out.Overhead = (out.Time - out.Work) / out.Work
	out.FinalTainted = r.corrupted
	return out, nil
}

// CheckRun validates a one-shot run: it needs an application and a
// stopping rule, an instance count or a finite work target.
func CheckRun(app Application, patterns int, targetWork float64) error {
	if app == nil {
		return errors.New("nil App")
	}
	if patterns <= 0 && targetWork <= 0 {
		return fmt.Errorf("need Patterns > 0 or TargetWork > 0 (got %d, %v)", patterns, targetWork)
	}
	if math.IsNaN(targetWork) || math.IsInf(targetWork, 0) {
		return fmt.Errorf("TargetWork = %v, need finite", targetWork)
	}
	return nil
}

// more is the stopping rule: run until the instance count (when set)
// and the work target (when set) are both met.
func (r *Runtime) more(patterns, done int, work float64) bool {
	if patterns > 0 && done < patterns {
		return true
	}
	return r.targetWork > 0 && work < r.targetWork
}

// Progress snapshots the running outcome after work seconds of useful
// work, so Boundary observers see a consistent state.
func (r *Runtime) Progress(work float64) Outcome {
	return Outcome{
		Time: r.now, Work: work, PlanSwaps: r.swaps,
		FailStopExposure: r.fail.Exposure(), SilentExposure: r.silent.Exposure(),
	}
}

// Arrivals returns the fail-stop and silent errors injected so far.
func (r *Runtime) Arrivals() (failStop, silent int64) { return r.failStops, r.silents }

// emit records a timeline event when a recorder is installed.
func (r *Runtime) emit(k EventKind, op core.Op) {
	if r.rec != nil {
		r.rec(Event{Time: r.now, Kind: k, Op: op, Segment: r.segment, Pattern: r.instance})
	}
}

// Chunk executes w seconds of computation, exposed to both error
// processes. A silent error corrupts the state and computing goes on;
// a fail-stop error interrupts the chunk (Chunk reports false), and
// its partial progress dies with the memory, so the application never
// performs it.
func (r *Runtime) Chunk(w float64) bool {
	remaining := w
	for remaining > 0 {
		fdt, fHit := r.fail.Within(remaining)
		sdt, sHit := r.silent.Within(remaining)
		if sHit && (!fHit || sdt <= fdt) {
			if r.app != nil {
				r.corrupt(sdt)
			}
			r.silent.Consume()
			r.fail.Advance(sdt)
			r.now += sdt
			remaining -= sdt
			r.corrupted = true
			r.silents++
			r.emit(EvSilent, core.OpChunk)
			continue
		}
		if fHit {
			r.fail.Consume()
			r.silent.Advance(fdt)
			r.now += fdt
			r.failStops++
			r.emit(EvFailStop, core.OpChunk)
			return false
		}
		if r.app != nil {
			r.advance(remaining)
		}
		r.fail.Advance(remaining)
		r.silent.Advance(remaining)
		r.now += remaining
		remaining = 0
	}
	return true
}

// Spend advances the virtual clock by cost seconds of an operation no
// error strikes.
func (r *Runtime) Spend(cost float64) { r.now += cost }

// Verify runs one verification and reports an alarm. A non-nil v
// decides; otherwise the oracle flags an injected corruption with
// probability recall, drawing from the detection stream — a recall of
// 1 (a guaranteed verification) draws nothing.
func (r *Runtime) Verify(v Verifier, recall float64) bool {
	// An oracle on a clean state is the simulators' hot path: it
	// returns here, and this test is small enough to inline.
	if v == nil && !r.corrupted {
		return false
	}
	return r.check(v, recall)
}

// Checkpoint commits the current state at levels 1..top from one
// snapshot.
func (r *Runtime) Checkpoint(top int) {
	var snap []byte
	if r.app != nil {
		snap = r.snapshot()
	}
	for l := 1; l <= top; l++ {
		r.tainted[l-1] = r.corrupted
		if r.app != nil {
			r.save(l, snap)
		}
	}
}

// Rollback restores the checkpoint at level: the state returns to it,
// and every level below it is re-established from the same state (a
// level's recovery cost includes that by definition).
func (r *Runtime) Rollback(level int) {
	t := r.tainted[level-1]
	for l := 1; l < level; l++ {
		r.tainted[l-1] = t
	}
	r.corrupted = t
	if r.app != nil {
		snap := r.load(level)
		if r.err == nil {
			r.err = r.app.Restore(snap)
		}
		for l := 1; l < level; l++ {
			r.save(l, snap)
		}
	}
}

// advance performs w seconds of computation on the application.
func (r *Runtime) advance(w float64) {
	if r.err == nil {
		r.err = r.app.Advance(w)
	}
}

// corrupt performs the w seconds of computation preceding a silent
// error, then applies the corruption.
func (r *Runtime) corrupt(w float64) {
	r.advance(w)
	if r.err == nil && r.inject != nil {
		r.err = r.inject(r.app)
	}
}

// check decides the alarm of a verification that Verify could not: the
// oracle on a corrupted state, or a user verifier.
func (r *Runtime) check(v Verifier, recall float64) bool {
	if v == nil {
		return r.detect.Hit(recall)
	}
	if r.err != nil {
		return false
	}
	clean, err := v.Check(r.app)
	r.err = err
	return err == nil && !clean
}

// snapshot serialises the application.
func (r *Runtime) snapshot() []byte {
	if r.err != nil {
		return nil
	}
	snap, err := r.app.Snapshot()
	r.err = err
	return snap
}

// save stores snap at level.
func (r *Runtime) save(level int, snap []byte) {
	if r.err == nil {
		r.err = r.storage.Save(level, snap)
	}
}

// load reads the checkpoint at level.
func (r *Runtime) load(level int) []byte {
	if r.err != nil {
		return nil
	}
	snap, err := r.storage.Load(level)
	r.err = err
	return snap
}
