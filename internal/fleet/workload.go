package fleet

// Workload generation: open-loop Poisson arrivals with deterministic
// seeded streams, and the job-trace parser behind cmd/fleet -trace.
// The trace schema is documented in docs/api.md ("cmd/fleet job-trace
// format") with an example under examples/fleet/.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"strconv"
	"strings"

	"respat/internal/faults"
)

// rng builds the deterministic generator of one synthesis stream.
func rng(seed uint64, stream uint64) *rand.Rand {
	s1, s2 := faults.SplitSeed(seed, stream)
	return rand.New(rand.NewPCG(s1, s2))
}

// synthesize builds the open-loop workload: NumJobs jobs with
// exponential inter-arrival times at Rate, work drawn log-uniformly in
// [JobWork/WorkSpread, JobWork*WorkSpread], and node counts either
// fixed (JobNodes) or a uniform power-of-two mix from 1 to Nodes/2.
// Every draw comes from its own (Seed, stream) generator, so the
// workload is a pure function of the configuration.
func synthesize(cfg *Config) []Job {
	arrivals := rng(cfg.Seed, streamArrival)
	works := rng(cfg.Seed, streamWork)
	nodes := rng(cfg.Seed, streamNodes)

	var sizes []int
	if cfg.JobNodes == 0 {
		for s := 1; s <= cfg.Nodes/2; s *= 2 {
			sizes = append(sizes, s)
		}
		if len(sizes) == 0 {
			sizes = []int{1}
		}
	}
	spread := cfg.WorkSpread
	if spread == 0 {
		spread = 1
	}
	lnSpread := math.Log(spread)

	jobs := make([]Job, cfg.NumJobs)
	now := 0.0
	for i := range jobs {
		now += arrivals.ExpFloat64() / cfg.Rate
		w := cfg.JobWork
		if spread > 1 {
			w *= math.Exp((2*works.Float64() - 1) * lnSpread)
		}
		n := cfg.JobNodes
		if n == 0 {
			n = sizes[nodes.IntN(len(sizes))]
		}
		jobs[i] = Job{Arrival: now, Work: w, Nodes: n, Mode: cfg.Mode}
	}
	return jobs
}

// ParseTrace reads the cmd/fleet job-trace format: one job per line,
//
//	<arrival-seconds> <work-seconds> [nodes [mode]]
//
// whitespace-separated, with '#' starting a comment and blank lines
// skipped. Arrivals must be finite, >= 0 and non-decreasing, work
// finite and > 0, and nodes > 0; nodes defaults to 1 and mode
// (pattern | twolevel | multilevel) to def. An error names the line at
// fault. Only the cluster-size check is left to Config.Validate, which
// knows the cluster; each job keeps its line, so that check names the
// line too. The full schema is documented in docs/api.md.
func ParseTrace(r io.Reader, def Mode) ([]Job, error) {
	var jobs []Job
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) < 2 || len(fields) > 4 {
			return nil, fmt.Errorf("fleet: trace line %d: %d fields, want 2-4", lineNo, len(fields))
		}
		arrival, err := parseFinite(fields[0])
		if err != nil {
			return nil, fmt.Errorf("fleet: trace line %d: arrival %q: %w", lineNo, fields[0], err)
		}
		work, err := parseFinite(fields[1])
		if err != nil {
			return nil, fmt.Errorf("fleet: trace line %d: work %q: %w", lineNo, fields[1], err)
		}
		job := Job{Arrival: arrival, Work: work, Nodes: 1, Mode: def, line: lineNo}
		if len(fields) >= 3 {
			n, err := strconv.Atoi(fields[2])
			if err != nil {
				return nil, fmt.Errorf("fleet: trace line %d: nodes %q: %w", lineNo, fields[2], err)
			}
			job.Nodes = n
		}
		if len(fields) == 4 {
			m, err := ParseMode(fields[3])
			if err != nil {
				return nil, fmt.Errorf("fleet: trace line %d: unknown mode %q (have pattern, twolevel, multilevel)", lineNo, fields[3])
			}
			job.Mode = m
		}
		if err := job.check(math.MaxInt); err != nil {
			return nil, fmt.Errorf("fleet: trace line %d: %w", lineNo, err)
		}
		if len(jobs) > 0 && job.Arrival < jobs[len(jobs)-1].Arrival {
			return nil, fmt.Errorf("fleet: trace line %d: arrival %v before previous %v", lineNo, job.Arrival, jobs[len(jobs)-1].Arrival)
		}
		jobs = append(jobs, job)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("fleet: reading trace: %w", err)
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("fleet: trace holds no jobs")
	}
	return jobs, nil
}

// parseFinite parses a trace time field. strconv.ParseFloat accepts
// "NaN" and "Inf", but neither is a time: a NaN arrival fails every
// comparison and would slip past the non-decreasing check.
func parseFinite(s string) (float64, error) {
	x, err := strconv.ParseFloat(s, 64)
	if err == nil && (math.IsNaN(x) || math.IsInf(x, 0)) {
		err = errors.New("not finite")
	}
	return x, err
}
