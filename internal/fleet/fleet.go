// Package fleet is a deterministic discrete-event simulator of a whole
// cluster running resilience-protected jobs. Where internal/sim
// validates the paper's model for a single protected application,
// fleet answers capacity-planning questions: will N nodes sustain an
// arrival rate R under the platform's fault rates (λf, λs) within an
// SLO on queueing delay and resilience overhead?
//
// A campaign has three phases:
//
//  1. Plan — every distinct (mode, job node count) gets a resilience
//     plan (optimize.Exact for pattern mode, multilevel.NewPlanner for
//     the hierarchical modes), with the job's error rates weak-scaled
//     from the platform's per-node rates.
//  2. Simulate — each job's protected execution (fault injection on
//     the exposure clocks of internal/sim, whole patterns as the unit
//     of protected work) runs as one cell of a sched.RunCellsCtx
//     fan-out: each worker keeps warm JobSim/MLJobSim executors per
//     plan and every cell writes only its own slot. A job's duration
//     is a pure function of (campaign seed, job index, plan), so the
//     fan-out width cannot change any output bit.
//  3. Dispatch — a sequential discrete-event loop replays open-loop
//     arrivals against the shared node pool with a FIFO queue and
//     optional conservative backfill (durations are known exactly, so
//     backfilled jobs provably never delay the queue head), then
//     reduces per-job metrics in job order.
//
// Same seed ⇒ byte-identical Result JSON for any Workers value,
// asserted like internal/sim's determinism tests.
package fleet

import (
	"fmt"
	"math"
	"runtime"
	"strings"

	"respat/internal/core"
	"respat/internal/faults"
	"respat/internal/platform"
	"respat/internal/sched"
	"respat/internal/sim"
)

// Mode selects the resilience model protecting a job.
type Mode int

const (
	// ModePattern protects jobs with a single-level Table 1 pattern
	// (family Config.Family) simulated by the internal/sim executor
	// with errors striking all operations (the Section 5 semantics).
	ModePattern Mode = iota
	// ModeTwoLevel protects jobs with the two-level checkpoint
	// hierarchy (multilevel model at L = 2).
	ModeTwoLevel
	// ModeMultilevel protects jobs with an L-level hierarchy
	// (Config.Levels, default 3).
	ModeMultilevel
	numModes
)

// String names the mode as the CLI spells it.
func (m Mode) String() string {
	switch m {
	case ModePattern:
		return "pattern"
	case ModeTwoLevel:
		return "twolevel"
	case ModeMultilevel:
		return "multilevel"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode converts a mode name (case-insensitive) to a Mode.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(s) {
	case "pattern":
		return ModePattern, nil
	case "twolevel":
		return ModeTwoLevel, nil
	case "multilevel":
		return ModeMultilevel, nil
	default:
		return 0, fmt.Errorf("fleet: unknown mode %q (have pattern, twolevel, multilevel)", s)
	}
}

// Job is one unit of submitted work: it arrives at Arrival, needs
// Nodes nodes exclusively, and performs Work seconds of protected
// computation under the resilience model of Mode.
type Job struct {
	// Arrival is the submission time in seconds from campaign start.
	Arrival float64
	// Work is the error-free computation demand in seconds. Protected
	// execution proceeds in whole patterns, so the effective work is
	// Work rounded up to a multiple of the plan's pattern length W*.
	Work float64
	// Nodes is the number of cluster nodes the job occupies; the job's
	// error rates are the platform per-node rates times Nodes.
	Nodes int
	// Mode selects the job's resilience model.
	Mode Mode
	// line is the 1-based trace line ParseTrace read the job from, so
	// Config.Validate can name it; 0 for a job built in code.
	line int
}

// Validate checks one job against the cluster size.
func (j Job) Validate(clusterNodes int) error {
	if err := j.check(clusterNodes); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	return nil
}

// check is Validate without the package prefix, for callers that name
// the job's trace line or position in front of the reason.
func (j Job) check(clusterNodes int) error {
	if j.Arrival < 0 || math.IsNaN(j.Arrival) || math.IsInf(j.Arrival, 0) {
		return fmt.Errorf("job arrival = %v, need finite >= 0", j.Arrival)
	}
	if j.Work <= 0 || math.IsNaN(j.Work) || math.IsInf(j.Work, 0) {
		return fmt.Errorf("job work = %v, need finite > 0", j.Work)
	}
	if j.Nodes <= 0 {
		return fmt.Errorf("job nodes = %d, need > 0", j.Nodes)
	}
	if j.Nodes > clusterNodes {
		return fmt.Errorf("job needs %d nodes, cluster has %d", j.Nodes, clusterNodes)
	}
	if j.Mode < 0 || j.Mode >= numModes {
		return fmt.Errorf("job mode %d out of range", int(j.Mode))
	}
	return nil
}

// Config parameterises a fleet campaign.
type Config struct {
	// Platform supplies the per-node error rates and the resilience
	// costs (a Table 2 platform, typically).
	Platform platform.Platform
	// Nodes is the cluster capacity; 0 means Platform.Nodes.
	Nodes int
	// Mode is the resilience model of synthesized jobs (trace jobs
	// carry their own).
	Mode Mode
	// Family is the Table 1 family used by pattern-mode jobs; the zero
	// value is PD, cmd/fleet defaults to PDMV.
	Family core.Kind
	// Levels is the hierarchy depth of ModeMultilevel jobs (default 3,
	// max multilevel.MaxLevels); ModeTwoLevel always uses 2.
	Levels int

	// Trace, when non-nil, is the explicit job list (see ParseTrace);
	// arrivals must be non-decreasing. It overrides the synthesis
	// fields below.
	Trace []Job
	// NumJobs is the number of synthesized jobs.
	NumJobs int
	// Rate is the Poisson arrival rate of synthesized jobs in jobs per
	// second.
	Rate float64
	// JobWork is the work demand of synthesized jobs in seconds
	// (default 86400, one error-free day).
	JobWork float64
	// WorkSpread >= 1 draws each synthesized job's work log-uniformly
	// from [JobWork/WorkSpread, JobWork*WorkSpread]; 0 or 1 keeps it
	// constant.
	WorkSpread float64
	// JobNodes fixes the node count of synthesized jobs; 0 draws
	// power-of-two sizes from 1 to Nodes/2 uniformly (a classic HPC
	// mix, which gives the backfill scheduler something to do).
	JobNodes int

	// Backfill enables conservative backfill: when the queue head does
	// not fit, later queued jobs may start if they fit in the free
	// nodes and provably finish before the head's reservation time.
	Backfill bool
	// Seed makes the whole campaign reproducible: arrivals, job sizing
	// and every job's fault injection derive from it alone.
	Seed uint64
	// Workers bounds the goroutines simulating job executions; 0 means
	// GOMAXPROCS. It affects wall-clock speed only, never results.
	Workers int
}

// Stream indices under the campaign seed. Job fault-injection seeds
// live at jobSeedStream+i so they can never collide with the workload
// synthesis streams.
const (
	streamArrival = iota
	streamWork
	streamNodes
	jobSeedStream = 1 << 32
)

// jobSeed derives job i's fault-injection seed; the job's executor
// splits its own per-process streams from it, so jobs of different
// modes never share an underlying random sequence.
func jobSeed(campaign uint64, i int) uint64 {
	s, _ := faults.SplitSeed(campaign, jobSeedStream+uint64(i))
	return s
}

// Validate checks the configuration and normalises nothing; Run works
// on a copy with defaults applied.
func (cfg Config) Validate() error {
	if err := cfg.Platform.Validate(); err != nil {
		return err
	}
	if cfg.Nodes < 0 {
		return fmt.Errorf("fleet: Nodes = %d, need >= 0", cfg.Nodes)
	}
	if cfg.Mode < 0 || cfg.Mode >= numModes {
		return fmt.Errorf("fleet: Mode %d out of range", int(cfg.Mode))
	}
	if !cfg.Family.Valid() {
		return fmt.Errorf("fleet: invalid pattern family %d", int(cfg.Family))
	}
	if cfg.Levels < 0 {
		return fmt.Errorf("fleet: Levels = %d, need >= 0", cfg.Levels)
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("fleet: Workers = %d, need >= 0", cfg.Workers)
	}
	nodes := cfg.Nodes
	if nodes == 0 {
		nodes = cfg.Platform.Nodes
	}
	if cfg.Trace != nil {
		last := math.Inf(-1)
		for i, j := range cfg.Trace {
			// A trace read by ParseTrace has passed every check but
			// the cluster size; its jobs are named by their trace
			// line, jobs built in code by their position from 1.
			if err := j.check(nodes); err != nil {
				if j.line > 0 {
					return fmt.Errorf("fleet: trace line %d: %w", j.line, err)
				}
				return fmt.Errorf("fleet: trace job %d: %w", i+1, err)
			}
			if j.Arrival < last {
				return fmt.Errorf("fleet: trace job %d arrives at %v, before job %d at %v", i+1, j.Arrival, i, last)
			}
			last = j.Arrival
		}
		return nil
	}
	if cfg.NumJobs <= 0 {
		return fmt.Errorf("fleet: NumJobs = %d, need > 0 (or a Trace)", cfg.NumJobs)
	}
	if cfg.Rate <= 0 || math.IsNaN(cfg.Rate) || math.IsInf(cfg.Rate, 0) {
		return fmt.Errorf("fleet: Rate = %v jobs/s, need finite > 0", cfg.Rate)
	}
	if cfg.JobWork < 0 || math.IsNaN(cfg.JobWork) || math.IsInf(cfg.JobWork, 0) {
		return fmt.Errorf("fleet: JobWork = %v, need finite >= 0", cfg.JobWork)
	}
	if cfg.WorkSpread != 0 && (cfg.WorkSpread < 1 || math.IsNaN(cfg.WorkSpread) || math.IsInf(cfg.WorkSpread, 0)) {
		return fmt.Errorf("fleet: WorkSpread = %v, need >= 1 (or 0)", cfg.WorkSpread)
	}
	if cfg.JobNodes < 0 || cfg.JobNodes > nodes {
		return fmt.Errorf("fleet: JobNodes = %d, need 0..%d", cfg.JobNodes, nodes)
	}
	return nil
}

// jobExec is the per-job execution record filled across the three
// phases.
type jobExec struct {
	planIdx  int
	patterns int
	effWork  float64
	duration float64
	counters Totals
	start    float64
	end      float64
}

// Run executes the campaign. The returned Result is byte-identical
// (via Result.JSON) for a fixed Config modulo Workers.
func Run(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = cfg.Platform.Nodes
	}
	if cfg.Levels == 0 {
		cfg.Levels = 3
	}
	if cfg.JobWork == 0 {
		cfg.JobWork = 86400
	}

	jobs := cfg.Trace
	if jobs == nil {
		jobs = synthesize(&cfg)
	}
	if len(jobs) == 0 {
		return Result{}, fmt.Errorf("fleet: empty job list")
	}

	plans, planIdx, err := buildPlans(&cfg, jobs)
	if err != nil {
		return Result{}, err
	}

	// Phase 2: per-job protected executions, fanned out with the
	// worker-count-independent discipline. Each cell writes only
	// execs[i]; each worker's context holds warm executors per plan.
	execs := make([]jobExec, len(jobs))
	for i := range jobs {
		execs[i].planIdx = planIdx[i]
		p := plans[planIdx[i]]
		n := int(math.Ceil(jobs[i].Work / p.w))
		if n < 1 {
			n = 1
		}
		execs[i].patterns = n
		execs[i].effWork = float64(n) * p.w
	}
	workers := cfg.Workers
	err = sched.RunCellsCtx(len(jobs), workersOr(workers, len(jobs)),
		func() (*simCtx, error) { return newSimCtx(plans), nil },
		func(ctx *simCtx, i int) error {
			dur, cnt, err := ctx.simulate(plans[execs[i].planIdx], jobSeed(cfg.Seed, i), execs[i].patterns)
			if err != nil {
				return fmt.Errorf("fleet: job %d: %w", i, err)
			}
			execs[i].duration = dur
			execs[i].counters = cnt
			return nil
		})
	if err != nil {
		return Result{}, err
	}

	// Phase 3: sequential dispatch + reduction in job order.
	backfilled := dispatch(&cfg, jobs, execs)
	return reduce(&cfg, jobs, execs, plans, backfilled)
}

// workersOr resolves the Workers default against the cell count.
func workersOr(workers, n int) int {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// simCtx is one worker's warm executor set: lazily one JobSim or
// MLJobSim per plan index. Executors are caches in the RunCellsCtx
// sense — their reuse history cannot influence a job's output, which
// depends only on (plan, job seed, pattern count).
type simCtx struct {
	plans []jobPlan
	pat   map[int]*sim.JobSim
	ml    map[int]*sim.MLJobSim
}

func newSimCtx(plans []jobPlan) *simCtx {
	return &simCtx{plans: plans, pat: map[int]*sim.JobSim{}, ml: map[int]*sim.MLJobSim{}}
}

// simulate runs one job's protected execution and maps its counters to
// the mode-independent totals.
func (c *simCtx) simulate(p jobPlan, seed uint64, patterns int) (float64, Totals, error) {
	if p.mode == ModePattern {
		js, ok := c.pat[p.idx]
		if !ok {
			var err error
			js, err = sim.NewJobSim(sim.Config{
				Pattern: p.pattern, Costs: p.costs, Rates: p.rates,
				ErrorsInOps: true,
			})
			if err != nil {
				return 0, Totals{}, err
			}
			c.pat[p.idx] = js
		}
		cnt, dur, err := js.Run(seed, patterns)
		if err != nil {
			return 0, Totals{}, err
		}
		return dur, patternTotals(cnt), nil
	}
	js, ok := c.ml[p.idx]
	if !ok {
		var err error
		js, err = sim.NewMLJobSim(sim.MultilevelConfig{Params: p.params, Spec: p.spec})
		if err != nil {
			return 0, Totals{}, err
		}
		c.ml[p.idx] = js
	}
	cnt, dur, err := js.Run(seed, patterns)
	if err != nil {
		return 0, Totals{}, err
	}
	return dur, multilevelTotals(cnt), nil
}
