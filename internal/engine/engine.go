package engine

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

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

// Level identifies a checkpoint storage level.
type Level int

// The two checkpoint levels of the protocol.
const (
	Memory Level = iota
	Disk
)

// Storage persists checkpoints at the two levels.
type Storage interface {
	Save(level Level, data []byte) error
	Load(level Level) ([]byte, error)
}

// MemStorage keeps both levels in process memory. It is the fastest
// backend and the right one for simulated-disk experiments.
type MemStorage struct {
	mem  []byte
	disk []byte
}

// Save stores a copy of data at the given level. An empty snapshot is
// a valid checkpoint (stateless applications), hence the non-nil copy.
func (s *MemStorage) Save(level Level, data []byte) error {
	cp := make([]byte, len(data))
	copy(cp, data)
	if level == Memory {
		s.mem = cp
	} else {
		s.disk = cp
	}
	return nil
}

// Load returns a copy of the checkpoint at the given level.
func (s *MemStorage) Load(level Level) ([]byte, error) {
	src := s.mem
	if level == Disk {
		src = s.disk
	}
	if src == nil {
		return nil, fmt.Errorf("engine: no checkpoint at level %d", level)
	}
	return append([]byte(nil), src...), nil
}

// DirStorage keeps the memory level in process memory and the disk
// level in a file, exercising a real I/O path.
type DirStorage struct {
	mem  []byte
	path string
}

// NewDirStorage creates a DirStorage writing its disk checkpoints to
// dir/checkpoint.bin.
func NewDirStorage(dir string) (*DirStorage, error) {
	info, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("engine: checkpoint dir: %w", err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("engine: checkpoint path %s is not a directory", dir)
	}
	return &DirStorage{path: filepath.Join(dir, "checkpoint.bin")}, nil
}

// Save stores data at the given level (the disk level hits the file
// system).
func (s *DirStorage) Save(level Level, data []byte) error {
	if level == Memory {
		s.mem = make([]byte, len(data))
		copy(s.mem, data)
		return nil
	}
	tmp := s.path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, s.path) // atomic replace: a crash never leaves a torn checkpoint
}

// Load retrieves the checkpoint at the given level.
func (s *DirStorage) Load(level Level) ([]byte, error) {
	if level == Memory {
		if s.mem == nil {
			return nil, errors.New("engine: no memory checkpoint")
		}
		return append([]byte(nil), s.mem...), nil
	}
	return os.ReadFile(s.path)
}

// Config assembles an engine run.
type Config struct {
	App     Application
	Pattern core.Pattern
	Costs   core.Costs
	// Patterns is the number of pattern instances to execute.
	Patterns int
	// Storage backs the two checkpoint levels; nil selects MemStorage.
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
	// Time is the total virtual wall-clock in seconds.
	Time float64
	// Work is the useful work completed: the sum of the executed
	// instances' pattern lengths W (instances may differ in length
	// after a Boundary swap).
	Work float64
	// Overhead is (Time - Work) / Work.
	Overhead float64
	// Counters are the run's event counters.
	Counters
	// PlanSwaps counts the pattern swaps performed by the Boundary
	// hook.
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

// Run executes pattern instances until the stopping rule is met —
// Patterns instances, or TargetWork seconds of useful work — and
// returns the report. The application ends in the state a fault-free
// execution would produce, provided the guaranteed verifier catches
// every corruption (the oracle always does).
func Run(cfg Config) (Report, error) {
	if cfg.App == nil {
		return Report{}, errors.New("engine: nil App")
	}
	if cfg.Patterns <= 0 && cfg.TargetWork <= 0 {
		return Report{}, fmt.Errorf("engine: need Patterns > 0 or TargetWork > 0 (got %d, %v)",
			cfg.Patterns, cfg.TargetWork)
	}
	if math.IsNaN(cfg.TargetWork) || math.IsInf(cfg.TargetWork, 0) {
		return Report{}, fmt.Errorf("engine: TargetWork = %v, need finite", cfg.TargetWork)
	}
	e, err := NewExecutor(cfg)
	if err != nil {
		return Report{}, err
	}
	e.Reset(cfg.FailStop, cfg.Silent)
	return e.Run(cfg.Patterns)
}

// Executor runs the Section 2 protocol for one configuration. It is
// built once (NewExecutor), re-armed per run with new arrival sources
// (Reset) and run (Run). With no App it is the Monte-Carlo simulator
// (internal/sim): no Snapshot, Restore or Storage calls, and nil
// verifiers are the oracles. An Executor is not safe for concurrent
// use.
type Executor struct {
	// Hot protocol state first.
	fail, silent faults.Clock
	now          float64
	sched        []core.Action
	segStart     []int // schedule index of each segment's first action
	// Ground-truth corruption tracking. The executor injects the
	// corruptions, so it knows which snapshots are tainted; protocol
	// decisions still come only from the verifiers.
	corrupted   bool
	memTainted  bool
	diskTainted bool
	cnt         Counters
	rec         func(Event) // timeline recorder (Record), or nil
	curSeg      int         // segment of the action in flight, for rec
	patIdx      int         // pattern instance in flight, for rec
	err         error       // first application, storage or verifier error
	pat         core.Pattern
	swaps       int64
	cfg         Config
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
	if cfg.Detect == nil {
		cfg.Detect = faults.NewBernoulli(0x5eed, 0xdee7)
	}
	if cfg.App != nil && cfg.Storage == nil {
		cfg.Storage = &MemStorage{}
	}
	e := &Executor{cfg: cfg}
	e.setPattern(cfg.Pattern)
	return e, nil
}

// Reset re-arms the executor for a new run on the given arrival
// sources (nil means no errors of that type): time, counters and
// corruption state start from zero, and a pattern swapped in by the
// previous run's Boundary hook is swapped back out. Without such a
// swap it does not allocate.
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
	e.corrupted, e.memTainted, e.diskTainted = false, false, false
	e.cnt = Counters{}
	e.curSeg, e.patIdx = 0, 0
	e.err = nil
	if e.swaps != 0 {
		e.setPattern(e.cfg.Pattern)
		e.swaps = 0
	}
}

// Record installs a recorder that receives every timeline event of the
// following runs; nil removes it.
func (e *Executor) Record(rec func(Event)) { e.rec = rec }

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
		e.patIdx = done
		e.runPattern()
		if e.err != nil {
			break
		}
		work += e.pat.W
		e.emit(EvPatternDone, core.OpDisk)
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

// more is the stopping rule: run until the instance count (when set)
// and the work target (when set) are both met.
func (e *Executor) more(patterns, done int, work float64) bool {
	if patterns > 0 && done < patterns {
		return true
	}
	return e.cfg.TargetWork > 0 && work < e.cfg.TargetWork
}

// boundary calls the Boundary hook after done instances and installs
// the pattern it returns.
func (e *Executor) boundary(patterns, done int, work float64) {
	next, err := e.cfg.Boundary(done, e.report(work))
	if err != nil {
		e.err = err
		return
	}
	if next == nil {
		return
	}
	if err := next.Validate(); err != nil {
		// Surface a broken swap pattern no matter where the run ends —
		// the final boundary must not mask a controller bug that every
		// earlier boundary would abort on.
		e.err = err
		return
	}
	if !e.more(patterns, done, work) {
		// The stopping rule fires before another pattern runs: a swap
		// decided at the final boundary would never execute, so don't
		// install or count it (the observation was still fed above).
		return
	}
	e.setPattern(*next)
	e.swaps++
}

// report snapshots the running report: total time, work, counters and
// exposure clocks, so Boundary observers see a consistent state.
func (e *Executor) report(work float64) Report {
	return Report{
		Time: e.now, Work: work, Counters: e.cnt, PlanSwaps: e.swaps,
		FailStopExposure: e.fail.Exposure(), SilentExposure: e.silent.Exposure(),
	}
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

// emit records a timeline event when a recorder is installed.
func (e *Executor) emit(k EventKind, op core.Op) {
	if e.rec != nil {
		e.rec(Event{Time: e.now, Kind: k, Op: op, Segment: e.curSeg, Pattern: e.patIdx})
	}
}

// runPattern executes one pattern instance to completion, restarting
// from the disk checkpoint on fail-stop errors and from the enclosing
// segment's memory checkpoint on detected silent errors.
func (e *Executor) runPattern() {
	c := &e.cfg.Costs
	i := 0
	for i < len(e.sched) {
		a := &e.sched[i]
		e.curSeg = a.Segment
		switch a.Op {
		case core.OpChunk:
			if !e.chunk(a.Work) {
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
			var alarm bool
			if e.cfg.Partial == nil {
				alarm = e.corrupted && e.cfg.Detect.Hit(c.Recall)
			} else {
				alarm = e.check(e.cfg.Partial)
			}
			if alarm {
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
			alarm := e.corrupted
			if e.cfg.Guaranteed != nil {
				alarm = e.check(e.cfg.Guaranteed)
			}
			if alarm {
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
			if e.cfg.App != nil {
				e.saveMemory()
			}
			e.memTainted = e.corrupted
			e.cnt.MemCkpts++
			e.emit(EvOpDone, core.OpMemCkpt)
		case core.OpDisk:
			if !e.op(c.DiskCkpt) {
				e.diskRecovery()
				i = 0
				continue
			}
			if e.cfg.App != nil {
				e.saveDisk()
			}
			e.diskTainted = e.memTainted
			e.cnt.DiskCkpts++
			e.emit(EvOpDone, core.OpDisk)
		}
		i++
	}
}

// chunk executes w seconds of computation, exposed to both error
// processes. A silent error corrupts the state and computing goes on;
// a fail-stop error interrupts the chunk (chunk reports false), and
// its partial progress dies with the memory, so the application never
// performs it.
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
			e.emit(EvSilent, core.OpChunk)
			continue
		}
		if fHit {
			e.fail.Consume()
			e.silent.Advance(fdt)
			e.now += fdt
			e.cnt.FailStop++
			e.emit(EvFailStop, core.OpChunk)
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
		e.cnt.FailStop++
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
	if e.corrupted && !e.diskTainted {
		e.cnt.SilentMasked++
	}
	e.corrupted, e.memTainted = e.diskTainted, e.diskTainted
	if e.cfg.App != nil {
		e.restore(Disk)
	}
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
	e.corrupted = e.memTainted
	if e.cfg.App != nil {
		e.restore(Memory)
	}
	return true
}

// The application-facing helpers below record the first error in
// e.err and do nothing once it is set: the instance in flight then
// completes as a run with no application would, and Run returns the
// error at its end.

// initialCheckpoint persists the pristine initial state at both levels
// (the "initial data" the first pattern recovers to, Section 2.2).
func (e *Executor) initialCheckpoint() {
	snap, err := e.cfg.App.Snapshot()
	if err == nil {
		err = e.cfg.Storage.Save(Memory, snap)
	}
	if err == nil {
		err = e.cfg.Storage.Save(Disk, snap)
	}
	e.err = err
}

// advance performs w seconds of computation on the application.
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
func (e *Executor) check(v Verifier) bool {
	if e.err != nil {
		return false
	}
	clean, err := v.Check(e.cfg.App)
	e.err = err
	return err == nil && !clean
}

// saveMemory snapshots the application to the memory level.
func (e *Executor) saveMemory() {
	if e.err != nil {
		return
	}
	snap, err := e.cfg.App.Snapshot()
	if err == nil {
		err = e.cfg.Storage.Save(Memory, snap)
	}
	e.err = err
}

// saveDisk copies the (just-taken) memory checkpoint to disk.
func (e *Executor) saveDisk() {
	if e.err != nil {
		return
	}
	snap, err := e.cfg.Storage.Load(Memory)
	if err == nil {
		err = e.cfg.Storage.Save(Disk, snap)
	}
	e.err = err
}

// restore reloads the application from the checkpoint at level; after
// a disk read it also re-establishes the memory copy.
func (e *Executor) restore(level Level) {
	if e.err != nil {
		return
	}
	snap, err := e.cfg.Storage.Load(level)
	if err == nil {
		err = e.cfg.App.Restore(snap)
	}
	if err == nil && level == Disk {
		err = e.cfg.Storage.Save(Memory, snap)
	}
	e.err = err
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

// Overhead is a convenience: (time - work)/work guarding zero work.
func Overhead(time, work float64) float64 {
	if work == 0 {
		return math.Inf(1)
	}
	return (time - work) / work
}
