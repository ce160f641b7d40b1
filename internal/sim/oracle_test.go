package sim

// The Monte-Carlo executors this package ran before it became a
// campaign layer over engine.Executor and multilevel.Executor, kept
// verbatim as test oracles: the parity tests hold the runtime
// executors, run with no application, to these bit for bit.

import (
	"math/rand/v2"

	"respat/internal/core"
	"respat/internal/faults"
	"respat/internal/multilevel"
)

// process drives one error source on an exposure clock.
type process struct {
	src   faults.Source
	clock float64 // accumulated exposure
	next  float64 // next arrival on the exposure clock
}

func newProcess(src faults.Source) process {
	return process{src: src, next: src.Next(0)}
}

// within reports the exposure distance to the next arrival and whether
// it falls inside the next d units of exposure.
func (p *process) within(d float64) (float64, bool) {
	dt := p.next - p.clock
	return dt, dt <= d
}

// advance consumes d units of exposure known to contain no arrival.
func (p *process) advance(d float64) { p.clock += d }

// consume advances to the pending arrival and schedules the next one.
func (p *process) consume() {
	p.clock = p.next
	p.next = p.src.Next(p.clock)
}

// plan is the immutable flattening of a pattern shared by every run of
// a campaign: the executable schedule and each segment's first action
// index. Building it once per Run (instead of once per run, as the
// executor used to) removes the dominant per-run allocations of
// paper-scale campaigns.
type plan struct {
	sched    []core.Action
	segStart []int // schedule index of each segment's first action
}

func newPlan(p core.Pattern) *plan {
	sched := p.Schedule()
	segStart := make([]int, p.N())
	seen := 0
	for i, a := range sched {
		if a.Op == core.OpChunk && a.Chunk == 0 && a.Segment == seen {
			segStart[seen] = i
			seen++
		}
	}
	return &plan{sched: sched, segStart: segStart}
}

// executor simulates runs one at a time; one executor is reused across
// all runs of a worker, reseeded per run by reset.
type executor struct {
	cfg       *Config
	plan      *plan
	fail      process
	silent    process
	detect    *faults.Bernoulli
	now       float64
	corrupted bool
	cnt       Counters
	// Reusable default sources and their generators, reseeded in place
	// per run; nil when the corresponding factory override is set.
	failExp   *faults.Exponential
	failPCG   *rand.PCG
	silentExp *faults.Exponential
	silentPCG *rand.PCG
	detectPCG *rand.PCG
	// Optional event recorder (TraceOne) plus its position context.
	rec    func(Event)
	curSeg int
	patIdx int
}

// emit records a timeline event when tracing is enabled.
func (e *executor) emit(k EventKind, op core.Op) {
	if e.rec != nil {
		e.rec(Event{Time: e.now, Kind: k, Op: op, Segment: e.curSeg, Pattern: e.patIdx})
	}
}

// newExecutor builds a reusable executor for a validated configuration
// against a campaign-shared plan. Call reset before each run.
func newExecutor(cfg *Config, pl *plan) *executor {
	e := &executor{cfg: cfg, plan: pl}
	// The rates were validated by Config.Validate whenever a default
	// exponential source is needed, so construction cannot fail here.
	if cfg.FailSource == nil {
		e.failPCG = rand.NewPCG(0, 0)
		e.failExp = &faults.Exponential{Lambda: cfg.Rates.FailStop, Rng: rand.New(e.failPCG)}
	}
	if cfg.SilentSource == nil {
		e.silentPCG = rand.NewPCG(0, 0)
		e.silentExp = &faults.Exponential{Lambda: cfg.Rates.Silent, Rng: rand.New(e.silentPCG)}
	}
	e.detectPCG = rand.NewPCG(0, 0)
	e.detect = &faults.Bernoulli{Rng: rand.New(e.detectPCG)}
	return e
}

// reset prepares the executor for one run. Every random stream depends
// only on (cfg.Seed, run), never on scheduling, so results are
// bit-identical across worker counts; reseeding the generators in place
// is state-equivalent to constructing fresh ones with the same seeds.
func (e *executor) reset(run int) {
	var failSrc, silentSrc faults.Source
	if e.cfg.FailSource != nil {
		failSrc = e.cfg.FailSource(run)
	} else {
		s1, s2 := faults.SplitSeed(e.cfg.Seed, uint64(run)*numStreams+streamFail)
		e.failPCG.Seed(s1, s2)
		failSrc = e.failExp
	}
	if e.cfg.SilentSource != nil {
		silentSrc = e.cfg.SilentSource(run)
	} else {
		s1, s2 := faults.SplitSeed(e.cfg.Seed, uint64(run)*numStreams+streamSilent)
		e.silentPCG.Seed(s1, s2)
		silentSrc = e.silentExp
	}
	d1, d2 := faults.SplitSeed(e.cfg.Seed, uint64(run)*numStreams+streamDetect)
	e.detectPCG.Seed(d1, d2)
	e.fail = newProcess(failSrc)
	e.silent = newProcess(silentSrc)
	e.now = 0
	e.corrupted = false
	e.cnt = Counters{}
	e.curSeg = 0
	e.patIdx = 0
}

// runAll executes cfg.Patterns pattern instances and returns the event
// counters and total elapsed virtual time.
func (e *executor) runAll() (Counters, float64) {
	for p := 0; p < e.cfg.Patterns; p++ {
		e.patIdx = p
		e.runPattern()
		e.emit(EvPatternDone, core.OpDisk)
	}
	return e.cnt, e.now
}

// outcome of a protected (fail-stop-exposed) operation.
type outcome int

const (
	opDone outcome = iota
	opFailStop
)

// runPattern executes one pattern instance to completion, restarting
// from the disk checkpoint on fail-stop errors and from the enclosing
// segment's memory checkpoint on detected silent errors.
func (e *executor) runPattern() {
	i := 0
	for i < len(e.plan.sched) {
		a := e.plan.sched[i]
		e.curSeg = a.Segment
		switch a.Op {
		case core.OpChunk:
			if e.chunk(a.Work) == opFailStop {
				e.diskRecovery()
				i = 0
				continue
			}
			e.emit(EvOpDone, core.OpChunk)
		case core.OpPartVer:
			res, detected := e.verify(core.OpPartVer, e.cfg.Costs.PartVer, e.cfg.Costs.Recall, &e.cnt.PartVerifs, &e.cnt.DetectByPart)
			if res == opFailStop {
				e.diskRecovery()
				i = 0
				continue
			}
			if detected {
				if e.memRecovery() == opFailStop {
					i = 0
				} else {
					i = e.plan.segStart[a.Segment]
				}
				continue
			}
		case core.OpGuarVer:
			res, detected := e.verify(core.OpGuarVer, e.cfg.Costs.GuarVer, 1, &e.cnt.GuarVerifs, &e.cnt.DetectByGuar)
			if res == opFailStop {
				e.diskRecovery()
				i = 0
				continue
			}
			if detected {
				if e.memRecovery() == opFailStop {
					i = 0
				} else {
					i = e.plan.segStart[a.Segment]
				}
				continue
			}
		case core.OpMemCkpt:
			if e.protectedOp(e.cfg.Costs.MemCkpt) == opFailStop {
				e.diskRecovery()
				i = 0
				continue
			}
			e.cnt.MemCkpts++
			e.emit(EvOpDone, core.OpMemCkpt)
		case core.OpDisk:
			if e.protectedOp(e.cfg.Costs.DiskCkpt) == opFailStop {
				e.diskRecovery()
				i = 0
				continue
			}
			e.cnt.DiskCkpts++
			e.emit(EvOpDone, core.OpDisk)
		}
		i++
	}
}

// chunk executes w seconds of computation, exposed to both error
// processes. It returns opFailStop if interrupted.
func (e *executor) chunk(w float64) outcome {
	remaining := w
	for remaining > 0 {
		fdt, fHit := e.fail.within(remaining)
		sdt, sHit := e.silent.within(remaining)
		if sHit && (!fHit || sdt <= fdt) {
			// A silent error strikes first: corrupt and keep computing.
			e.silent.consume()
			e.fail.advance(sdt)
			e.now += sdt
			remaining -= sdt
			e.corrupted = true
			e.cnt.Silent++
			e.emit(EvSilent, core.OpChunk)
			continue
		}
		if fHit {
			e.fail.consume()
			e.silent.advance(fdt)
			e.now += fdt
			e.cnt.FailStop++
			e.emit(EvFailStop, core.OpChunk)
			return opFailStop
		}
		e.fail.advance(remaining)
		e.silent.advance(remaining)
		e.now += remaining
		remaining = 0
	}
	return opDone
}

// protectedOp executes a non-computation operation of the given cost.
// Silent errors never strike it; fail-stop errors do when ErrorsInOps.
func (e *executor) protectedOp(cost float64) outcome {
	if cost <= 0 {
		return opDone
	}
	if !e.cfg.ErrorsInOps {
		e.now += cost
		return opDone
	}
	if fdt, hit := e.fail.within(cost); hit {
		e.fail.consume()
		e.now += fdt
		e.cnt.FailStop++
		e.emit(EvFailStop, core.OpChunk)
		return opFailStop
	}
	e.fail.advance(cost)
	e.now += cost
	return opDone
}

// verify runs a verification of the given cost and recall, bumps its
// counter on completion and reports whether an existing corruption was
// detected.
func (e *executor) verify(op core.Op, cost, recall float64, done, caught *int64) (outcome, bool) {
	if e.protectedOp(cost) == opFailStop {
		return opFailStop, false
	}
	*done++
	e.emit(EvOpDone, op)
	if e.corrupted && e.detect.Hit(recall) {
		*caught++
		e.emit(EvDetect, op)
		return opDone, true
	}
	return opDone, false
}

// diskRecovery restores the last disk checkpoint (RD) and the memory
// state (RM), retrying per the Section 5 semantics: a fail-stop during
// either restore resumes from the disk read. It clears any pending
// corruption — the restored state is verified by construction.
func (e *executor) diskRecovery() {
	for {
		if e.protectedOp(e.cfg.Costs.DiskRec) == opFailStop {
			continue
		}
		if e.protectedOp(e.cfg.Costs.MemRec) == opFailStop {
			continue
		}
		break
	}
	e.cnt.DiskRecs++
	e.emit(EvDiskRec, core.OpChunk)
	if e.corrupted {
		e.cnt.SilentMasked++
		e.corrupted = false
	}
}

// memRecovery restores the segment's memory checkpoint after a
// verification alarm. A fail-stop during the restore escalates to a
// full disk recovery (the memory content is lost), reported as
// opFailStop so the caller restarts the whole pattern.
func (e *executor) memRecovery() outcome {
	if e.protectedOp(e.cfg.Costs.MemRec) == opFailStop {
		e.diskRecovery()
		return opFailStop
	}
	e.cnt.MemRecs++
	e.emit(EvMemRec, core.OpChunk)
	e.corrupted = false
	return opDone
}

// mlExecutor simulates multilevel runs one at a time; one executor is
// reused across all runs of a worker, reseeded per run by reset.
type mlExecutor struct {
	cfg    *MultilevelConfig
	layout *multilevel.Layout
	fail   process
	silent process
	detect *faults.Bernoulli
	level  *faults.Bernoulli // uniform stream behind the level draw

	now       float64
	corrupted bool
	cnt       MultilevelCounters

	failExp   *faults.Exponential
	failPCG   *rand.PCG
	silentExp *faults.Exponential
	silentPCG *rand.PCG
	detectPCG *rand.PCG
	levelPCG  *rand.PCG
}

func newMLExecutor(cfg *MultilevelConfig, layout *multilevel.Layout) *mlExecutor {
	e := &mlExecutor{cfg: cfg, layout: layout}
	// Rates were validated by cfg.Validate, so construction cannot fail.
	e.failPCG = rand.NewPCG(0, 0)
	e.failExp = &faults.Exponential{Lambda: cfg.Params.Rates.FailStop, Rng: rand.New(e.failPCG)}
	e.silentPCG = rand.NewPCG(0, 0)
	e.silentExp = &faults.Exponential{Lambda: cfg.Params.Rates.Silent, Rng: rand.New(e.silentPCG)}
	e.detectPCG = rand.NewPCG(0, 0)
	e.detect = &faults.Bernoulli{Rng: rand.New(e.detectPCG)}
	e.levelPCG = rand.NewPCG(0, 0)
	e.level = &faults.Bernoulli{Rng: rand.New(e.levelPCG)}
	return e
}

// reset prepares the executor for one run; every stream depends only
// on (cfg.Seed, run).
func (e *mlExecutor) reset(run int) {
	s1, s2 := faults.SplitSeed(e.cfg.Seed, uint64(run)*numMLStreams+mlStreamFail)
	e.failPCG.Seed(s1, s2)
	s1, s2 = faults.SplitSeed(e.cfg.Seed, uint64(run)*numMLStreams+mlStreamSilent)
	e.silentPCG.Seed(s1, s2)
	s1, s2 = faults.SplitSeed(e.cfg.Seed, uint64(run)*numMLStreams+mlStreamDetect)
	e.detectPCG.Seed(s1, s2)
	s1, s2 = faults.SplitSeed(e.cfg.Seed, uint64(run)*numMLStreams+mlStreamLevel)
	e.levelPCG.Seed(s1, s2)
	e.fail = newProcess(e.failExp)
	e.silent = newProcess(e.silentExp)
	e.now = 0
	e.corrupted = false
	e.cnt = MultilevelCounters{}
}

func (e *mlExecutor) runAll() (MultilevelCounters, float64) {
	for p := 0; p < e.cfg.Patterns; p++ {
		e.runPattern()
	}
	return e.cnt, e.now
}

// runPattern executes one pattern instance: n_1 level-1 intervals,
// each of m chunks, with level-aware rollback.
func (e *mlExecutor) runPattern() {
	p := &e.cfg.Params
	n1 := e.layout.Spec.Counts[0]
	t := 0
	for t < n1 {
		if lvl, ok := e.runInterval(); !ok {
			// Fail-stop of level lvl: pay its recovery, resume from the
			// most recent level-≥lvl boundary. The restored state was
			// verified before it was checkpointed, so no corruption
			// survives the rollback.
			e.now += p.Levels[lvl-1].Rec
			e.cnt.Recs[lvl-1]++
			e.corrupted = false
			t = e.layout.RollbackTo(lvl, t)
			continue
		}
		// Clean guaranteed verification: commit the boundary's
		// checkpoint stack.
		for l := 1; l <= e.layout.BoundaryLevel(t); l++ {
			e.now += p.Levels[l-1].Ckpt
			e.cnt.Ckpts[l-1]++
		}
		t++
	}
}

// runInterval executes one level-1 interval until it passes its
// closing guaranteed verification. It returns ok=false with the error
// level when a fail-stop interrupts it; detected silent errors are
// handled internally (level-1 rollback and retry).
func (e *mlExecutor) runInterval() (level int, ok bool) {
	p := &e.cfg.Params
	m := len(e.layout.Chunks)
	for {
		j := 0
		for j < m {
			if !e.chunk(e.layout.Chunks[j]) {
				return p.PickLevel(e.level.Rng.Float64()), false
			}
			if j < m-1 {
				// Interior verification.
				e.now += e.layout.InteriorCost
				e.cnt.PartVerifs++
				if e.corrupted && e.detect.Hit(e.layout.InteriorRecall) {
					e.cnt.DetectByPart++
					e.silentRollback()
					j = 0
					continue
				}
			}
			j++
		}
		// Closing guaranteed verification: detection is certain.
		e.now += p.GuarVer
		e.cnt.GuarVerifs++
		if !e.corrupted {
			return 0, true
		}
		e.cnt.DetectByGuar++
		e.silentRollback()
	}
}

// silentRollback restores the level-1 checkpoint after a verification
// alarm.
func (e *mlExecutor) silentRollback() {
	e.now += e.cfg.Params.Levels[0].Rec
	e.cnt.SilentRecs++
	e.corrupted = false
}

// chunk executes w seconds of computation exposed to both error
// processes; it reports false when a fail-stop interrupts it.
func (e *mlExecutor) chunk(w float64) bool {
	remaining := w
	for remaining > 0 {
		fdt, fHit := e.fail.within(remaining)
		sdt, sHit := e.silent.within(remaining)
		if sHit && (!fHit || sdt <= fdt) {
			e.silent.consume()
			e.fail.advance(sdt)
			e.now += sdt
			remaining -= sdt
			e.corrupted = true
			e.cnt.Silent++
			continue
		}
		if fHit {
			e.fail.consume()
			e.silent.advance(fdt)
			e.now += fdt
			e.cnt.FailStop++
			return false
		}
		e.fail.advance(remaining)
		e.silent.advance(remaining)
		e.now += remaining
		remaining = 0
	}
	return true
}
