// Package sim is the Monte-Carlo simulator used to validate the
// analytical model (Section 6 of the paper). It replays the execution
// of an application protected by a computational pattern on a virtual
// clock: fail-stop errors may strike during computations and — in the
// Section 5 mode — during verifications, checkpoints and recoveries,
// while silent errors strike computations only. A fail-stop error
// triggers a disk recovery and a pattern restart; a detected silent
// error triggers a memory recovery and a segment restart.
//
// The protocol itself is the runtime's: a run is an engine.Executor
// (multilevel.Executor for RunMultilevel) executing with no
// application, so the oracles make every detection decision and no
// state is saved or restored. This package is the campaign layer on
// top: it derives every run's random streams from (Seed, run), reuses
// one executor per worker, reseeding it in place, and reduces the
// per-run statistics in run order.
//
// Error arrivals are driven by exposure clocks (faults.Clock): each
// process (fail-stop and silent) accumulates exposure only while an
// operation it can strike is running, which realises the paper's
// "errors strike computations" semantics for arbitrary renewal
// processes, not just the memoryless exponential.
//
// Detection semantics match the accounting of Proposition 3: a silent
// error leaves the application state corrupted; each partial
// verification executed while corrupted detects independently with
// probability r (so a corruption surviving k partial verifications has
// probability (1-r)^k), and a guaranteed verification always detects.
package sim

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"

	"respat/internal/core"
	"respat/internal/engine"
	"respat/internal/faults"
	"respat/internal/stats"
)

// Stream identifiers for deterministic per-run seed derivation.
const (
	streamFail = iota
	streamSilent
	streamDetect
	numStreams
)

// Config parameterises a simulation campaign.
type Config struct {
	Pattern core.Pattern
	Costs   core.Costs
	Rates   core.Rates
	// Patterns is the number of pattern instances forming the
	// application (the paper uses 1000 optimal patterns).
	Patterns int
	// Runs is the number of independent Monte-Carlo repetitions (the
	// paper uses 1000).
	Runs int
	// Seed makes the whole campaign reproducible; runs are seeded
	// independently of scheduling, so results do not depend on Workers.
	Seed uint64
	// ErrorsInOps enables fail-stop errors during verifications,
	// checkpoints and recoveries (the Section 5 / reference-simulator
	// behaviour). When false, the Sections 3-4 assumption holds and
	// only computations are exposed.
	ErrorsInOps bool
	// Workers bounds the number of parallel simulation goroutines;
	// 0 means GOMAXPROCS.
	Workers int
	// FailSource and SilentSource optionally override the exponential
	// arrival processes (e.g. Weibull ablations or trace replay in
	// tests). They are invoked once per run with the run index.
	FailSource   func(run int) faults.Source
	SilentSource func(run int) faults.Source
}

// Counters tallies the events of one run (or, summed, of a campaign);
// see engine.Counters.
type Counters = engine.Counters

// Result aggregates a campaign.
type Result struct {
	Runs        int
	Patterns    int
	PatternWork float64      // W of the simulated pattern
	Overhead    stats.Sample // per-run (time-work)/work
	WallTime    stats.Sample // per-run total simulated seconds
	Total       Counters     // summed over runs
}

// TotalTime returns the summed simulated wall-clock over all runs.
func (r Result) TotalTime() float64 { return r.WallTime.Mean() * float64(r.WallTime.N()) }

// PerHour converts a campaign-total event count into the average
// number of events per simulated hour.
func (r Result) PerHour(count int64) float64 {
	t := r.TotalTime()
	if t == 0 {
		return 0
	}
	return float64(count) / (t / 3600)
}

// PerDay converts a campaign-total event count into the average number
// of events per simulated day.
func (r Result) PerDay(count int64) float64 { return r.PerHour(count) * 24 }

// PerPattern converts a campaign-total event count into the average
// number of events per executed pattern.
func (r Result) PerPattern(count int64) float64 {
	n := float64(r.Runs) * float64(r.Patterns)
	if n == 0 {
		return 0
	}
	return float64(count) / n
}

// Validate checks the configuration.
func (cfg Config) Validate() error {
	if err := cfg.Pattern.Validate(); err != nil {
		return err
	}
	if err := cfg.Costs.Validate(); err != nil {
		return err
	}
	if cfg.FailSource == nil || cfg.SilentSource == nil {
		if err := cfg.Rates.Validate(); err != nil {
			return err
		}
	}
	if cfg.Patterns <= 0 {
		return fmt.Errorf("sim: Patterns = %d, need > 0", cfg.Patterns)
	}
	if cfg.Runs <= 0 {
		return fmt.Errorf("sim: Runs = %d, need > 0", cfg.Runs)
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("sim: Workers = %d, need >= 0", cfg.Workers)
	}
	return nil
}

// Run executes the campaign, distributing runs over worker goroutines.
// Results are bit-identical for a fixed cfg.Seed regardless of Workers:
// every run derives its random streams from (Seed, run) alone, each
// worker reuses one executor, and per-run statistics are reduced in run
// order.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	res := Result{Runs: cfg.Runs, Patterns: cfg.Patterns, PatternWork: cfg.Pattern.W}
	var err error
	res.Overhead, res.WallTime, res.Total, err = campaign(cfg.Runs, cfg.Workers,
		cfg.Pattern.W*float64(cfg.Patterns), func() (runner[Counters], error) { return newPatternRuns(&cfg) })
	return res, err
}

// runner is one worker's reusable executor: run simulates run number
// `run` of the campaign and returns its counters and elapsed virtual
// seconds.
type runner[C any] interface {
	run(run int) (C, float64)
}

// campaign simulates runs over workers goroutines (0 means GOMAXPROCS),
// each with its own runner from newRunner, and returns the per-run
// overheads relative to work and wall times, reduced in run order, and
// the summed counters. Runners are built before any run starts, so a
// construction error aborts the campaign.
func campaign[C any, PC interface {
	*C
	Add(C)
}](runs, workers int, work float64, newRunner func() (runner[C], error)) (overhead, wall stats.Sample, total C, err error) {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > runs {
		workers = runs
	}
	runners := make([]runner[C], workers)
	for w := range runners {
		if runners[w], err = newRunner(); err != nil {
			return overhead, wall, total, err
		}
	}
	overheads := make([]float64, runs)
	walls := make([]float64, runs)
	totals := make([]C, workers)
	simulate := func(w int) {
		for run := w; run < runs; run += workers {
			cnt, elapsed := runners[w].run(run)
			overheads[run] = (elapsed - work) / work
			walls[run] = elapsed
			PC(&totals[w]).Add(cnt)
		}
	}
	if workers == 1 {
		// Run inline: a single worker gains nothing from a goroutine,
		// and the spawn/handoff latency is comparable to a whole small
		// campaign (it showed up as a 2-3x swing in
		// BenchmarkSimulatePattern between snapshots).
		simulate(0)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				simulate(w)
			}(w)
		}
		wg.Wait()
	}
	for run := range overheads {
		overhead.Add(overheads[run])
		wall.Add(walls[run])
	}
	for i := range totals {
		PC(&total).Add(totals[i])
	}
	return overhead, wall, total, nil
}

// patternRuns is one worker's single-level runner: an engine executor
// with no application, plus the default exponential sources and the
// detection stream, all reseeded in place per run.
type patternRuns struct {
	cfg                           *Config
	ex                            *engine.Executor
	failPCG, silentPCG, detectPCG rand.PCG
	failExp, silentExp            faults.Exponential
	detect                        faults.Bernoulli
}

// newPatternRuns builds a runner for a validated configuration; cfg is
// read at every run, so JobSim can vary Seed and Patterns between runs.
func newPatternRuns(cfg *Config) (*patternRuns, error) {
	r := &patternRuns{cfg: cfg}
	if cfg.FailSource == nil {
		r.failExp = faults.Exponential{Lambda: cfg.Rates.FailStop, Rng: rand.New(&r.failPCG)}
	}
	if cfg.SilentSource == nil {
		r.silentExp = faults.Exponential{Lambda: cfg.Rates.Silent, Rng: rand.New(&r.silentPCG)}
	}
	r.detect.Rng = rand.New(&r.detectPCG)
	var err error
	r.ex, err = engine.NewExecutor(engine.Config{
		Pattern: cfg.Pattern, Costs: cfg.Costs, ErrorsInOps: cfg.ErrorsInOps, Detect: &r.detect,
	})
	return r, err
}

// run simulates one run. Every random stream depends only on
// (cfg.Seed, run), never on scheduling, so results are bit-identical
// across worker counts; reseeding the generators in place is
// state-equivalent to constructing fresh ones with the same seeds.
func (r *patternRuns) run(run int) (Counters, float64) {
	seed := r.cfg.Seed
	var fail, silent faults.Source
	if r.cfg.FailSource != nil {
		fail = r.cfg.FailSource(run)
	} else {
		r.failPCG.Seed(faults.SplitSeed(seed, uint64(run)*numStreams+streamFail))
		fail = &r.failExp
	}
	if r.cfg.SilentSource != nil {
		silent = r.cfg.SilentSource(run)
	} else {
		r.silentPCG.Seed(faults.SplitSeed(seed, uint64(run)*numStreams+streamSilent))
		silent = &r.silentExp
	}
	r.detectPCG.Seed(faults.SplitSeed(seed, uint64(run)*numStreams+streamDetect))
	r.ex.Reset(fail, silent)
	rep, _ := r.ex.Run(r.cfg.Patterns) // no application, so no error
	return rep.Counters, rep.Time
}
