package engine

import (
	"fmt"

	"respat/internal/core"
	"respat/internal/faults"
)

// Application is the computation protected by the engine. Advance must
// be deterministic for the engine's rollback guarantee to reproduce
// the fault-free result.
type Application interface {
	// Advance performs `work` seconds of computation at unit speed.
	Advance(work float64) error
	// Snapshot serialises the complete application state.
	Snapshot() ([]byte, error)
	// Restore replaces the application state from a snapshot.
	Restore(data []byte) error
}

// Verifier checks the application for silent data corruption.
// Check returns clean=false when corruption is detected.
type Verifier interface {
	Check(app Application) (clean bool, err error)
}

// The checkpoint levels of the single-level protocol. Storage levels
// count from 1, cheapest first: Memory and Disk here, 1..L for a
// multilevel hierarchy.
const (
	Memory = 1
	Disk   = 2
)

// Storage persists checkpoints by level.
type Storage interface {
	Save(level int, data []byte) error
	Load(level int) ([]byte, error)
}

// MemStorage keeps every level in process memory; its zero value is
// ready to use. It is the fastest backend and the right one for
// simulated-disk experiments.
type MemStorage struct {
	snaps [][]byte // snaps[level-1]
}

// Save stores a copy of data at the given level. An empty snapshot is
// a valid checkpoint (stateless applications), hence the non-nil copy.
func (s *MemStorage) Save(level int, data []byte) error {
	if level < 1 {
		return fmt.Errorf("engine: storage level %d, need >= 1", level)
	}
	if level > len(s.snaps) {
		s.snaps = append(s.snaps, make([][]byte, level-len(s.snaps))...)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	s.snaps[level-1] = cp
	return nil
}

// Load returns a copy of the checkpoint at the given level.
func (s *MemStorage) Load(level int) ([]byte, error) {
	if level < 1 || level > len(s.snaps) || s.snaps[level-1] == nil {
		return nil, fmt.Errorf("engine: no checkpoint at level %d", level)
	}
	return append([]byte(nil), s.snaps[level-1]...), nil
}

// Config assembles an engine run.
type Config struct {
	App     Application
	Pattern core.Pattern
	Costs   core.Costs
	// Patterns is the number of pattern instances to execute.
	Patterns int
	// Storage backs the Memory and Disk checkpoint levels; nil selects
	// a MemStorage.
	Storage Storage
	// FailStop and Silent supply error arrivals on exposure clocks
	// (see faults.Clock); nil means no errors of that type.
	FailStop faults.Source
	Silent   faults.Source
	// Corrupt applies one silent corruption to the application. It is
	// called at each Silent arrival; nil leaves state untouched (the
	// corruption is still tracked for oracle detection).
	Corrupt func(app Application) error
	// Guaranteed verifies at segment ends; nil selects the oracle that
	// flags exactly the injected corruptions (recall 1), matching the
	// model's assumption of a guaranteed verification.
	Guaranteed Verifier
	// Partial verifies at interior chunk boundaries; nil selects an
	// oracle detecting injected corruptions with probability
	// Costs.Recall using the Detect stream. A custom verifier may miss
	// corruptions (reduced recall) but must not report *persistent*
	// false positives: the replay after a rollback is deterministic, so
	// a detector that always mis-flags a clean state livelocks the
	// protocol, exactly as it would in a real deployment.
	Partial Verifier
	// Detect drives oracle partial detection; nil seeds a fresh
	// deterministic stream.
	Detect *faults.Bernoulli
	// ErrorsInOps exposes verifications, checkpoints and recoveries to
	// fail-stop errors (Section 5 semantics).
	ErrorsInOps bool
	// TargetWork, when positive, runs pattern instances until the
	// cumulative useful work reaches TargetWork seconds (Patterns may
	// then be zero). It is the natural stopping rule when patterns of
	// different lengths are mixed by Boundary swaps: runs with equal
	// TargetWork complete equal work and their overheads compare
	// directly.
	TargetWork float64
	// Boundary, if non-nil, is called after every completed pattern
	// instance with the number of instances done so far and a snapshot
	// of the running report. Returning a non-nil pattern swaps the
	// engine onto it starting at the next instance — the swap point of
	// the adaptive re-planning loop (internal/adapt); the pattern in
	// flight is never altered. Returning an error aborts the run.
	Boundary func(done int, rep Report) (*core.Pattern, error)
}

// Counters tallies the protocol events of a run (or, summed, of a
// simulation campaign). MemRecs counts only standalone memory
// recoveries triggered by a verification alarm; the memory restore
// bundled with every disk recovery is part of DiskRecs, matching the
// paper's Figure 6e accounting.
type Counters struct {
	FailStop     int64 // fail-stop errors injected
	Silent       int64 // silent errors injected
	SilentMasked int64 // corruptions wiped by a fail-stop before detection
	DiskCkpts    int64 // completed disk checkpoints
	MemCkpts     int64 // completed memory checkpoints
	PartVerifs   int64 // completed partial verifications
	GuarVerifs   int64 // completed guaranteed verifications
	DiskRecs     int64 // disk recoveries (each includes a memory restore)
	MemRecs      int64 // standalone memory recoveries
	DetectByPart int64 // corruptions caught by a partial verification
	DetectByGuar int64 // corruptions caught by a guaranteed verification
}

// Add accumulates o into c.
func (c *Counters) Add(o Counters) {
	c.FailStop += o.FailStop
	c.Silent += o.Silent
	c.SilentMasked += o.SilentMasked
	c.DiskCkpts += o.DiskCkpts
	c.MemCkpts += o.MemCkpts
	c.PartVerifs += o.PartVerifs
	c.GuarVerifs += o.GuarVerifs
	c.DiskRecs += o.DiskRecs
	c.MemRecs += o.MemRecs
	c.DetectByPart += o.DetectByPart
	c.DetectByGuar += o.DetectByGuar
}

// Verifs returns partial plus guaranteed verifications.
func (c Counters) Verifs() int64 { return c.PartVerifs + c.GuarVerifs }

// Report summarises an engine run.
type Report struct {
	Outcome
	// Counters are the run's event counters.
	Counters
}

// Run executes pattern instances until the stopping rule is met —
// Patterns instances, or TargetWork seconds of useful work — and
// returns the report. The application ends in the state a fault-free
// execution would produce, provided the guaranteed verifier catches
// every corruption (the oracle always does).
func Run(cfg Config) (Report, error) {
	if err := CheckRun(cfg.App, cfg.Patterns, cfg.TargetWork); err != nil {
		return Report{}, fmt.Errorf("engine: %w", err)
	}
	e, err := NewExecutor(cfg)
	if err != nil {
		return Report{}, err
	}
	e.Reset(cfg.FailStop, cfg.Silent)
	return e.Run(cfg.Patterns)
}

// Executor runs the Section 2 protocol for one configuration on the
// shared Runtime: a fail-stop error restarts the pattern from the disk
// checkpoint, and a detected silent error restarts the enclosing
// segment from its memory checkpoint. It is built once (NewExecutor),
// re-armed per run with new arrival sources (Reset) and run (Run).
// With no App it is the Monte-Carlo simulator (internal/sim). An
// Executor is not safe for concurrent use.
type Executor struct {
	Runtime
	sched    []core.Action
	segStart []int // schedule index of each segment's first action
	cnt      Counters
	pat      core.Pattern
	cfg      Config
}

// NewExecutor validates the costs and the pattern and flattens the
// pattern. It reads neither FailStop, Silent nor Patterns: Reset
// supplies the sources and Run the instance count. A nil Detect seeds
// a fresh deterministic stream; with an App, a nil Storage selects a
// MemStorage.
func NewExecutor(cfg Config) (*Executor, error) {
	if err := cfg.Costs.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Pattern.Validate(); err != nil {
		return nil, err
	}
	e := &Executor{
		Runtime: NewRuntime(Disk, cfg.App, cfg.Corrupt, cfg.Storage, cfg.Detect, cfg.TargetWork),
		cfg:     cfg,
	}
	e.setPattern(cfg.Pattern)
	return e, nil
}

// Reset re-arms the executor for a new run on the given arrival
// sources (nil means no errors of that type): time, counters and
// corruption state start from zero, and a pattern swapped in by the
// previous run's Boundary hook is swapped back out. Without such a
// swap it does not allocate.
func (e *Executor) Reset(failStop, silent faults.Source) {
	if e.swaps != 0 {
		e.setPattern(e.cfg.Pattern)
	}
	e.Runtime.Reset(failStop, silent)
	e.cnt = Counters{}
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
// the pattern it returns when another instance will run.
func (e *Executor) boundary(done int, work float64, more bool) (bool, error) {
	if e.cfg.Boundary == nil {
		return false, nil
	}
	next, err := e.cfg.Boundary(done, e.report(e.Progress(work)))
	if err != nil || next == nil {
		return false, err
	}
	// Surface a broken swap pattern no matter where the run ends — the
	// final boundary must not mask a controller bug that every earlier
	// boundary would abort on. A swap decided at the final boundary
	// would never execute, so it is neither installed nor counted (the
	// observation was still fed above).
	if err := next.Validate(); err != nil || !more {
		return false, err
	}
	e.setPattern(*next)
	return true, nil
}

// report completes an outcome with the run's event counters.
func (e *Executor) report(out Outcome) Report {
	cnt := e.cnt
	cnt.FailStop, cnt.Silent = e.Arrivals()
	return Report{Outcome: out, Counters: cnt}
}

// setPattern installs p's flattened schedule; the next runPattern
// executes p. p must be valid.
func (e *Executor) setPattern(p core.Pattern) {
	e.pat = p
	e.sched = p.Schedule()
	e.segStart = make([]int, p.N())
	seen := 0
	for i, a := range e.sched {
		if a.Op == core.OpChunk && a.Chunk == 0 && a.Segment == seen {
			e.segStart[seen] = i
			seen++
		}
	}
}

// runPattern executes one pattern instance to completion, restarting
// from the disk checkpoint on fail-stop errors and from the enclosing
// segment's memory checkpoint on detected silent errors, and returns
// the instance's work.
func (e *Executor) runPattern() float64 {
	c := &e.cfg.Costs
	i := 0
	for i < len(e.sched) {
		a := &e.sched[i]
		e.segment = a.Segment
		switch a.Op {
		case core.OpChunk:
			if !e.Chunk(a.Work) {
				e.diskRecovery()
				i = 0
				continue
			}
			e.emit(EvOpDone, core.OpChunk)
		case core.OpPartVer:
			if !e.op(c.PartVer) {
				e.diskRecovery()
				i = 0
				continue
			}
			e.cnt.PartVerifs++
			e.emit(EvOpDone, core.OpPartVer)
			if e.Verify(e.cfg.Partial, c.Recall) {
				e.cnt.DetectByPart++
				i = e.alarm(core.OpPartVer, a.Segment)
				continue
			}
		case core.OpGuarVer:
			if !e.op(c.GuarVer) {
				e.diskRecovery()
				i = 0
				continue
			}
			e.cnt.GuarVerifs++
			e.emit(EvOpDone, core.OpGuarVer)
			if e.Verify(e.cfg.Guaranteed, 1) {
				e.cnt.DetectByGuar++
				i = e.alarm(core.OpGuarVer, a.Segment)
				continue
			}
		case core.OpMemCkpt:
			if !e.op(c.MemCkpt) {
				e.diskRecovery()
				i = 0
				continue
			}
			e.Checkpoint(Memory)
			e.cnt.MemCkpts++
			e.emit(EvOpDone, core.OpMemCkpt)
		case core.OpDisk:
			if !e.op(c.DiskCkpt) {
				e.diskRecovery()
				i = 0
				continue
			}
			// The disk checkpoint copies the memory checkpoint just taken.
			if e.app != nil {
				e.save(Disk, e.load(Memory))
			}
			e.tainted[Disk-1] = e.tainted[Memory-1]
			e.cnt.DiskCkpts++
			e.emit(EvOpDone, core.OpDisk)
		}
		i++
	}
	return e.pat.W
}

// op spends cost seconds on a verification, checkpoint or recovery.
// Silent errors never strike it; fail-stop errors do when ErrorsInOps,
// and op then reports false.
func (e *Executor) op(cost float64) bool {
	if cost <= 0 {
		return true
	}
	if !e.cfg.ErrorsInOps {
		e.now += cost
		return true
	}
	if fdt, hit := e.fail.Within(cost); hit {
		e.fail.Consume()
		e.now += fdt
		e.failStops++
		e.emit(EvFailStop, core.OpChunk)
		return false
	}
	e.fail.Advance(cost)
	e.now += cost
	return true
}

// alarm handles a verification alarm raised by op in segment seg: it
// restores the segment's memory checkpoint and returns the step to
// resume from — the segment's first chunk, or the pattern's first if
// the restore escalated to a disk recovery.
func (e *Executor) alarm(op core.Op, seg int) int {
	e.emit(EvDetect, op)
	if e.memRecovery() {
		return e.segStart[seg]
	}
	return 0
}

// diskRecovery restores the last disk checkpoint (RD) and the memory
// state (RM), retrying per the Section 5 semantics: a fail-stop during
// either restore resumes from the disk read.
func (e *Executor) diskRecovery() {
	for {
		if !e.op(e.cfg.Costs.DiskRec) {
			continue
		}
		if !e.op(e.cfg.Costs.MemRec) {
			continue
		}
		break
	}
	e.cnt.DiskRecs++
	e.emit(EvDiskRec, core.OpChunk)
	if e.corrupted && !e.tainted[Disk-1] {
		e.cnt.SilentMasked++
	}
	e.Rollback(Disk)
}

// memRecovery restores the segment's memory checkpoint after a
// verification alarm. A fail-stop during the restore escalates to a
// full disk recovery (the memory content is lost), and memRecovery then
// reports false so the caller restarts the whole pattern.
func (e *Executor) memRecovery() bool {
	if !e.op(e.cfg.Costs.MemRec) {
		e.diskRecovery()
		return false
	}
	e.cnt.MemRecs++
	e.emit(EvMemRec, core.OpChunk)
	e.Rollback(Memory)
	return true
}

// WorkFunc adapts a plain function to the Application interface with
// no state; Snapshot and Restore are no-ops. It suits measurement-only
// workloads.
type WorkFunc func(work float64) error

// Advance calls the function.
func (f WorkFunc) Advance(work float64) error { return f(work) }

// Snapshot returns an empty snapshot.
func (WorkFunc) Snapshot() ([]byte, error) { return []byte{}, nil }

// Restore ignores the snapshot.
func (WorkFunc) Restore([]byte) error { return nil }

// VerifierFunc adapts a function to the Verifier interface.
type VerifierFunc func(app Application) (bool, error)

// Check calls the function.
func (f VerifierFunc) Check(app Application) (bool, error) { return f(app) }
