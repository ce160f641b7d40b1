package sim

import (
	"fmt"
	"math/rand/v2"

	"respat/internal/faults"
	"respat/internal/multilevel"
	"respat/internal/stats"
)

// Stream identifiers for the multilevel runs' deterministic per-run
// seed derivation (independent of the single-level streams: the two
// simulators never share a Config).
const (
	mlStreamFail = iota
	mlStreamSilent
	mlStreamDetect
	mlStreamLevel
	numMLStreams
)

// MultilevelConfig parameterises a multilevel Monte-Carlo campaign
// (internal/multilevel): patterns with L checkpoint levels, level-aware
// fail-stop rollback and the paper's silent-error verifications.
type MultilevelConfig struct {
	Params multilevel.Params
	Spec   multilevel.Spec
	// Patterns is the number of pattern instances per run.
	Patterns int
	// Runs is the number of independent Monte-Carlo repetitions.
	Runs int
	// Seed makes the campaign reproducible; as in Config, runs are
	// seeded independently of scheduling.
	Seed uint64
	// Workers bounds the number of parallel simulation goroutines;
	// 0 means GOMAXPROCS.
	Workers int
}

// MultilevelCounters tallies the events of a multilevel campaign; see
// multilevel.Counters.
type MultilevelCounters = multilevel.Counters

// MultilevelResult aggregates a multilevel campaign.
type MultilevelResult struct {
	Runs     int
	Patterns int
	// PatternWork is W of the simulated spec.
	PatternWork float64
	Overhead    stats.Sample // per-run (time-work)/work
	WallTime    stats.Sample // per-run total simulated seconds
	Total       MultilevelCounters
}

// Validate checks the configuration.
func (cfg MultilevelConfig) Validate() error {
	if err := cfg.Params.Validate(); err != nil {
		return err
	}
	if err := cfg.Spec.Validate(cfg.Params.L()); err != nil {
		return err
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

// RunMultilevel executes a multilevel campaign with the same
// determinism contract as Run: every random stream derives from
// (Seed, run) alone, each worker reuses one executor, and per-run
// statistics are reduced in run order, so results are bit-identical
// for any Workers value.
//
// The executor realises the model of internal/multilevel: errors
// strike computations only (the Sections 3-4 assumption the exact
// evaluator shares); a fail-stop error draws its level from the q
// shares, pays that level's recovery and rolls execution back to the
// most recent boundary that wrote a checkpoint at that level or above;
// a detected silent error pays the level-1 recovery and replays the
// current level-1 interval.
func RunMultilevel(cfg MultilevelConfig) (MultilevelResult, error) {
	if err := cfg.Validate(); err != nil {
		return MultilevelResult{}, err
	}
	res := MultilevelResult{Runs: cfg.Runs, Patterns: cfg.Patterns, PatternWork: cfg.Spec.W}
	var err error
	res.Overhead, res.WallTime, res.Total, err = campaign(cfg.Runs, cfg.Workers, cfg.Seed, cfg.Patterns,
		cfg.Spec.W, func() (runner[MultilevelCounters], error) { return newMultilevelRuns(cfg) })
	return res, err
}

// multilevelRuns is one worker's multilevel runner: a multilevel
// executor with no application, plus its exponential sources, detection
// and level-draw streams, all reseeded in place per run.
type multilevelRuns struct {
	ex                                      *multilevel.Executor
	failPCG, silentPCG, detectPCG, levelPCG rand.PCG
	failExp, silentExp                      faults.Exponential
	detect, level                           faults.Bernoulli
}

// newMultilevelRuns builds a runner for a validated configuration.
func newMultilevelRuns(cfg MultilevelConfig) (*multilevelRuns, error) {
	r := &multilevelRuns{}
	r.failExp = faults.Exponential{Lambda: cfg.Params.Rates.FailStop, Rng: rand.New(&r.failPCG)}
	r.silentExp = faults.Exponential{Lambda: cfg.Params.Rates.Silent, Rng: rand.New(&r.silentPCG)}
	r.detect.Rng = rand.New(&r.detectPCG)
	r.level.Rng = rand.New(&r.levelPCG)
	var err error
	r.ex, err = multilevel.NewExecutor(multilevel.EngineConfig{
		Params: cfg.Params, Spec: cfg.Spec, Detect: &r.detect, LevelDraw: &r.level,
	})
	return r, err
}

// run simulates one run; every stream depends only on (seed, run).
func (r *multilevelRuns) run(seed uint64, run, patterns int) (MultilevelCounters, float64) {
	base := uint64(run) * numMLStreams
	r.failPCG.Seed(faults.SplitSeed(seed, base+mlStreamFail))
	r.silentPCG.Seed(faults.SplitSeed(seed, base+mlStreamSilent))
	r.detectPCG.Seed(faults.SplitSeed(seed, base+mlStreamDetect))
	r.levelPCG.Seed(faults.SplitSeed(seed, base+mlStreamLevel))
	r.ex.Reset(&r.failExp, &r.silentExp)
	rep, _ := r.ex.Run(patterns) // no application, so no error
	return rep.Counters, rep.Time
}
