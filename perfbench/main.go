// Command perfbench is respat's benchmark. It runs one seeded workload
// in-process against respat's Go API, checks every output, and prints
// the workload's metrics: the end-to-end metrics with tracing off, or
// the per-layer metrics of a traced run with -trace 1. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": v, "unit": "u"}, ...}}
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload cluster-hot --seed 1 --seconds 10 --trace 0
//
// Workloads: cluster-hot, zipf-tail, paper-repro (see README.md). The
// exit status is 1 when an output check failed and 2 when the run could
// not complete.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration // length of the timed phase
	trace    bool
}

// Where a run keeps what it writes, relative to the repository root:
// the spans of traced runs, and the first fingerprint seen per
// (workload, seed), which later runs at that seed are compared with.
const (
	traceDir       = ".bench_build/traces"
	fingerprintDir = ".bench_build/fingerprints"
)

// metric is one reported number. n is the sample count behind it (0
// for a value that is not a sample statistic).
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

// count is one entry of a run's count fingerprint: an exact count the
// seed determines, which must repeat in every run at that seed. A
// jitter count depends on how the two clients interleave and may move
// by a few (see jitterTolerance).
type count struct {
	name   string
	value  int64
	jitter bool
}

// result is what a workload run reports.
type result struct {
	checks
	metrics []metric // the JSON line's metrics
	// notes are metrics the report prints by name but the JSON line
	// leaves out, because not every workload has them.
	notes       []metric
	fingerprint []count
}

// checks counts output checks and describes the failed ones.
type checks struct {
	attempted, failed int64
	failures          []string // one line per failed check (capped)
}

// maxFailureLines caps how many failed checks a run describes.
const maxFailureLines = 20

// fail records one failed check.
func (c *checks) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < maxFailureLines {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// add counts o's checks in c.
func (c *checks) add(o *checks) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, f := range o.failures {
		if len(c.failures) < maxFailureLines {
			c.failures = append(c.failures, f)
		}
	}
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(options) (result, error){
	"cluster-hot": func(o options) (result, error) { return runServing(clusterHot, o) },
	"zipf-tail":   func(o options) (result, error) { return runServing(zipfTail, o) },
	"paper-repro": runRepro,
}

func main() {
	var o options
	var seconds float64
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&seconds, "seconds", 10, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics of a traced run")
	flag.Parse()
	o.seconds = time.Duration(seconds * float64(time.Second))
	o.trace = trace == 1
	run, ok := workloads[o.workload]
	switch {
	case !ok:
		fatalf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
	case trace != 0 && trace != 1:
		fatalf("-trace %d, want 0 or 1", trace)
	case o.seconds <= 0:
		fatalf("-seconds %v, want > 0", seconds)
	}
	res, err := run(o)
	if err != nil {
		fatalf("%s: %v", o.workload, err)
	}
	if err := printResult(os.Stdout, o, res); err != nil {
		fatalf("writing result: %v", err)
	}
	if res.failed > 0 {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// printResult writes the human-readable report, then the JSON line.
func printResult(f *os.File, o options, res result) error {
	mode := "end-to-end, tracing off"
	if o.trace {
		mode = "per-layer, traced"
	}
	fmt.Fprintf(f, "workload %s seed %d seconds %g (%s)\n", o.workload, o.seed, o.seconds.Seconds(), mode)
	printMetrics := func(ms []metric, suffix string) {
		for _, m := range ms {
			n := ""
			if m.n > 0 {
				n = fmt.Sprintf("n=%d", m.n)
			}
			fmt.Fprintf(f, "  %-32s %14.6g %-6s %-10s%s\n", m.name, m.value, m.unit, n, suffix)
		}
	}
	printMetrics(res.metrics, "")
	errorRate := metric{"error_rate", "ratio", ratio(float64(res.failed), float64(res.attempted)), int(res.attempted)}
	printMetrics(append([]metric{errorRate}, res.notes...), " (not in the JSON line)")
	fmt.Fprintf(f, "fingerprint %s seed=%d %s\n", o.workload, o.seed, formatCounts(res.fingerprint))
	fmt.Fprintln(f, compareFingerprint(fingerprintDir, o.workload, o.seed, res.fingerprint))
	fmt.Fprintf(f, "checks attempted=%d failed=%d\n", res.attempted, res.failed)
	for _, line := range res.failures {
		fmt.Fprintf(f, "  check failed: %s\n", line)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, make(map[string]value, len(res.metrics))}
	for _, m := range res.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(f, "%s\n", b)
	return err
}
