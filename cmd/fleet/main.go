// Command fleet runs the deterministic fleet-scale discrete-event
// simulator (internal/fleet): open-loop job arrivals against a shared
// cluster, per-job resilience plans from the warm planners, per-job
// fault injection through internal/sim's job simulators, and SLO metrics
// (queue-delay / overhead / sojourn p50-p90-p99, utilization, event
// totals).
//
// Usage:
//
//	fleet -nodes 64 -rate 2.0 -num-jobs 100000 -seed 42
//	fleet -platform Atlas -mode multilevel -rate 0.5 -num-jobs 10000 -format json
//	fleet -trace examples/fleet/trace.txt -nodes 32 -format json
//
// Two runs with the same seed produce byte-identical -format json
// reports for any -workers value (enforced in CI). The job-trace
// schema is documented in docs/api.md; rate is in jobs per second.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"respat/internal/core"
	"respat/internal/fleet"
	"respat/internal/platform"
)

func main() {
	var (
		platName   = flag.String("platform", "Hera", "built-in platform name (per-node rates and costs)")
		nodes      = flag.Int("nodes", 0, "cluster node count (0 = platform's own)")
		mode       = flag.String("mode", "pattern", "resilience mode: pattern | twolevel | multilevel")
		family     = flag.String("family", "PDMV", "pattern family for -mode pattern")
		levels     = flag.Int("levels", 3, "hierarchy depth for -mode multilevel")
		rate       = flag.Float64("rate", 1.0, "Poisson arrival rate in jobs/second")
		numJobs    = flag.Int("num-jobs", 10000, "number of synthesized jobs")
		jobWork    = flag.Float64("job-work", 86400, "mean job work in seconds")
		workSpread = flag.Float64("work-spread", 1, "log-uniform work spread factor (>= 1)")
		jobNodes   = flag.Int("job-nodes", 0, "nodes per job (0 = power-of-two mix up to nodes/2)")
		trace      = flag.String("trace", "", "job-trace file overriding synthesis (see docs/api.md; - = stdin)")
		backfill   = flag.Bool("backfill", true, "conservative backfill behind the FIFO head")
		seed       = flag.Uint64("seed", 1, "campaign seed")
		workers    = flag.Int("workers", 0, "job-simulation goroutines (0 = GOMAXPROCS); never changes results")
		format     = flag.String("format", "table", "output format: table | json")
	)
	flag.Parse()
	if err := run(os.Stdout, *platName, *nodes, *mode, *family, *levels, *rate,
		*numJobs, *jobWork, *workSpread, *jobNodes, *trace, *backfill, *seed, *workers, *format); err != nil {
		fmt.Fprintln(os.Stderr, "fleet:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, platName string, nodes int, mode, family string, levels int,
	rate float64, numJobs int, jobWork, workSpread float64, jobNodes int,
	trace string, backfill bool, seed uint64, workers int, format string) error {
	p, err := platform.ByName(platName)
	if err != nil {
		return err
	}
	m, err := fleet.ParseMode(mode)
	if err != nil {
		return err
	}
	k, err := core.ParseKind(family)
	if err != nil {
		return err
	}
	cfg := fleet.Config{
		Platform:   p,
		Nodes:      nodes,
		Mode:       m,
		Family:     k,
		Levels:     levels,
		NumJobs:    numJobs,
		Rate:       rate,
		JobWork:    jobWork,
		WorkSpread: workSpread,
		JobNodes:   jobNodes,
		Backfill:   backfill,
		Seed:       seed,
		Workers:    workers,
	}
	if trace != "" {
		r := io.Reader(os.Stdin)
		if trace != "-" {
			f, err := os.Open(trace)
			if err != nil {
				return err
			}
			defer f.Close()
			r = f
		}
		jobs, err := fleet.ParseTrace(r, m)
		if err != nil {
			return err
		}
		cfg.Trace = jobs
	}
	res, err := fleet.Run(cfg)
	if err != nil {
		return err
	}
	switch format {
	case "json":
		b, err := res.JSON()
		if err != nil {
			return err
		}
		_, err = w.Write(b)
		return err
	case "table":
		return res.WriteTable(w)
	default:
		return fmt.Errorf("unknown format %q (have table, json)", format)
	}
}
