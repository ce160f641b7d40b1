package sim

// Job-granular entry points for the fleet simulator (internal/fleet):
// a fleet campaign needs one protected execution per job — seeded by
// the job's own identity, with the job's own pattern count — instead
// of one statistical campaign per configuration. A JobSim wraps a
// campaign runner so a worker can reuse one across all the jobs it
// simulates: construction validates once and flattens the pattern
// once; Run only reseeds in place.

import "fmt"

// JobSim replays single protected executions of one configuration,
// single-level (NewJobSim, counters C = Counters) or multilevel
// (NewMLJobSim, C = MultilevelCounters). It owns a reusable executor,
// so repeated Run calls allocate nothing. A JobSim is not safe for
// concurrent use; give each worker its own.
type JobSim[C any] struct {
	r    runner[C]
	work float64
}

// NewJobSim validates a single-level configuration (Runs and Seed are
// ignored — Run supplies per-job seeds) and flattens the pattern.
// cfg.Patterns only seeds validation; each Run passes its own count.
func NewJobSim(cfg Config) (*JobSim[Counters], error) {
	cfg.Runs = 1
	if cfg.Patterns == 0 {
		cfg.Patterns = 1
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r, err := newPatternRuns(cfg)
	if err != nil {
		return nil, err
	}
	return &JobSim[Counters]{r: r, work: cfg.Pattern.W}, nil
}

// NewMLJobSim is NewJobSim for a multilevel configuration: it
// validates cfg and builds the boundary layout once.
func NewMLJobSim(cfg MultilevelConfig) (*JobSim[MultilevelCounters], error) {
	cfg.Runs = 1
	if cfg.Patterns == 0 {
		cfg.Patterns = 1
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r, err := newMultilevelRuns(cfg)
	if err != nil {
		return nil, err
	}
	return &JobSim[MultilevelCounters]{r: r, work: cfg.Spec.W}, nil
}

// Run executes patterns instances with every random stream derived
// from seed alone (stream index 0, like run 0 of a campaign with that
// seed). It returns the event counters and the elapsed virtual
// seconds. The result is a pure function of (seed, patterns) and the
// construction-time configuration, which is what makes fleet
// reductions independent of worker count.
func (j *JobSim[C]) Run(seed uint64, patterns int) (C, float64, error) {
	if patterns <= 0 {
		var zero C
		return zero, 0, fmt.Errorf("sim: job patterns = %d, need > 0", patterns)
	}
	cnt, elapsed := j.r.run(seed, 0, patterns)
	return cnt, elapsed, nil
}

// Work returns the pattern work length W in seconds, the quantum a job
// of arbitrary work is rounded up to.
func (j *JobSim[C]) Work() float64 { return j.work }
