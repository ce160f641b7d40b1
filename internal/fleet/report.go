package fleet

// Metric reduction and rendering. Every aggregate is reduced in job
// order from per-job records, so the Result — and its JSON rendering —
// is byte-identical across Workers values (asserted by
// TestFleetReportByteIdentical).

import (
	"encoding/json"
	"fmt"
	"io"

	"respat/internal/report"
	"respat/internal/sim"
	"respat/internal/stats"
)

// Totals are mode-independent event counters summed over jobs.
type Totals struct {
	// FailStop and Silent count injected errors.
	FailStop int64 `json:"fail_stop"`
	Silent   int64 `json:"silent"`
	// Detected counts corruptions caught by any verification (the
	// remainder were wiped by a crash before detection).
	Detected int64 `json:"detected"`
	// Checkpoints counts committed checkpoints at every level (disk +
	// memory, or the whole hierarchy).
	Checkpoints int64 `json:"checkpoints"`
	// Verifications counts completed partial + guaranteed
	// verifications.
	Verifications int64 `json:"verifications"`
	// FailRecoveries counts rollbacks caused by fail-stop errors;
	// SilentRecoveries counts rollbacks caused by verification alarms.
	FailRecoveries   int64 `json:"fail_recoveries"`
	SilentRecoveries int64 `json:"silent_recoveries"`
}

func (t *Totals) add(o Totals) {
	t.FailStop += o.FailStop
	t.Silent += o.Silent
	t.Detected += o.Detected
	t.Checkpoints += o.Checkpoints
	t.Verifications += o.Verifications
	t.FailRecoveries += o.FailRecoveries
	t.SilentRecoveries += o.SilentRecoveries
}

// patternTotals maps single-level executor counters to Totals.
func patternTotals(c sim.Counters) Totals {
	return Totals{
		FailStop:         c.FailStop,
		Silent:           c.Silent,
		Detected:         c.DetectByPart + c.DetectByGuar,
		Checkpoints:      c.DiskCkpts + c.MemCkpts,
		Verifications:    c.PartVerifs + c.GuarVerifs,
		FailRecoveries:   c.DiskRecs,
		SilentRecoveries: c.MemRecs,
	}
}

// multilevelTotals maps multilevel executor counters to Totals.
func multilevelTotals(c sim.MultilevelCounters) Totals {
	t := Totals{
		FailStop:         c.FailStop,
		Silent:           c.Silent,
		Detected:         c.DetectByPart + c.DetectByGuar,
		Verifications:    c.PartVerifs + c.GuarVerifs,
		SilentRecoveries: c.SilentRecs,
	}
	for l := range c.Ckpts {
		t.Checkpoints += c.Ckpts[l]
		t.FailRecoveries += c.Recs[l]
	}
	return t
}

// Dist summarises one per-job metric: mean and the SLO quantiles.
type Dist struct {
	Mean float64 `json:"mean"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
}

// distOf reduces xs (not retained) to a Dist via one stats.Quantiles
// call.
func distOf(xs []float64) (Dist, error) {
	var s stats.Sample
	for _, x := range xs {
		s.Add(x)
	}
	qs, err := stats.Quantiles(xs, 0.50, 0.90, 0.99)
	if err != nil {
		return Dist{}, err
	}
	return Dist{Mean: s.Mean(), P50: qs[0], P90: qs[1], P99: qs[2], Max: s.Max()}, nil
}

// PlanSummary describes one (mode, nodes) resilience plan and how many
// jobs ran under it.
type PlanSummary struct {
	Mode              string  `json:"mode"`
	Nodes             int     `json:"nodes"`
	Jobs              int     `json:"jobs"`
	W                 float64 `json:"pattern_work_s"`
	PredictedOverhead float64 `json:"predicted_overhead"`
	Plan              string  `json:"plan"`
}

// Result aggregates a fleet campaign. Field order is the JSON field
// order; keep it stable — CI asserts byte-identical reports.
type Result struct {
	// Echo of the campaign shape.
	Platform string `json:"platform"`
	Nodes    int    `json:"nodes"`
	Jobs     int    `json:"jobs"`
	Seed     uint64 `json:"seed"`
	Backfill bool   `json:"backfill"`

	// Makespan is the last completion time in seconds; Utilization is
	// the fraction of node-seconds busy over [0, Makespan].
	Makespan    float64 `json:"makespan_s"`
	Utilization float64 `json:"utilization"`
	// Backfilled counts jobs started ahead of the queue head.
	Backfilled int `json:"backfilled"`
	// TotalWork and TotalEffWork are the submitted and the
	// pattern-quantized work, in seconds summed over jobs (per-job
	// seconds, not node-weighted).
	TotalWork    float64 `json:"total_work_s"`
	TotalEffWork float64 `json:"total_effective_work_s"`

	// QueueDelay is start-arrival; Overhead is the per-job resilience
	// overhead (duration-effwork)/effwork; Sojourn is completion-
	// arrival; Duration is the protected execution time.
	QueueDelay Dist `json:"queue_delay_s"`
	Overhead   Dist `json:"overhead"`
	Sojourn    Dist `json:"sojourn_s"`
	Duration   Dist `json:"duration_s"`

	Totals Totals        `json:"totals"`
	Plans  []PlanSummary `json:"plans"`
}

// reduce folds the per-job records into a Result, in job order.
func reduce(cfg *Config, jobs []Job, execs []jobExec, plans []jobPlan, backfilled int) (Result, error) {
	n := len(jobs)
	qd := make([]float64, n)
	oh := make([]float64, n)
	so := make([]float64, n)
	du := make([]float64, n)
	res := Result{
		Platform:   cfg.Platform.Name,
		Nodes:      cfg.Nodes,
		Jobs:       n,
		Seed:       cfg.Seed,
		Backfill:   cfg.Backfill,
		Backfilled: backfilled,
	}
	planJobs := make([]int, len(plans))
	var busy float64
	for i := range execs {
		e := &execs[i]
		qd[i] = e.start - jobs[i].Arrival
		oh[i] = (e.duration - e.effWork) / e.effWork
		so[i] = e.end - jobs[i].Arrival
		du[i] = e.duration
		if e.end > res.Makespan {
			res.Makespan = e.end
		}
		res.TotalWork += jobs[i].Work
		res.TotalEffWork += e.effWork
		busy += float64(jobs[i].Nodes) * e.duration
		res.Totals.add(e.counters)
		planJobs[e.planIdx]++
	}
	if res.Makespan > 0 {
		res.Utilization = busy / (float64(cfg.Nodes) * res.Makespan)
	}
	var err error
	if res.QueueDelay, err = distOf(qd); err != nil {
		return Result{}, err
	}
	if res.Overhead, err = distOf(oh); err != nil {
		return Result{}, err
	}
	if res.Sojourn, err = distOf(so); err != nil {
		return Result{}, err
	}
	if res.Duration, err = distOf(du); err != nil {
		return Result{}, err
	}
	res.Plans = make([]PlanSummary, len(plans))
	for i, p := range plans {
		res.Plans[i] = PlanSummary{
			Mode: p.mode.String(), Nodes: p.nodes, Jobs: planJobs[i],
			W: p.w, PredictedOverhead: p.predicted, Plan: p.desc,
		}
	}
	return res, nil
}

// JSON renders the result as stable, indented JSON with a trailing
// newline. Two campaigns with the same configuration (any Workers)
// produce byte-identical output.
func (r Result) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteTable renders the result as the cmd/fleet table.
func (r Result) WriteTable(w io.Writer) error {
	t := report.New(fmt.Sprintf("fleet: %d jobs on %d %s nodes (seed %d)", r.Jobs, r.Nodes, r.Platform, r.Seed),
		"metric", "mean", "p50", "p90", "p99", "max")
	row := func(name, unit string, d Dist, digits int) {
		t.AddRow(name+unit,
			report.Fixed(d.Mean, digits), report.Fixed(d.P50, digits),
			report.Fixed(d.P90, digits), report.Fixed(d.P99, digits),
			report.Fixed(d.Max, digits))
	}
	row("queue delay", " (s)", r.QueueDelay, 1)
	row("duration", " (s)", r.Duration, 1)
	row("sojourn", " (s)", r.Sojourn, 1)
	t.AddRow("overhead",
		report.Pct(r.Overhead.Mean, 3), report.Pct(r.Overhead.P50, 3),
		report.Pct(r.Overhead.P90, 3), report.Pct(r.Overhead.P99, 3),
		report.Pct(r.Overhead.Max, 3))
	t.AddRow("makespan (days)", report.Fixed(r.Makespan/86400, 3), "", "", "", "")
	t.AddRow("utilization", report.Pct(r.Utilization, 2), "", "", "", "")
	t.AddRow("backfilled jobs", fmt.Sprintf("%d", r.Backfilled), "", "", "", "")
	t.AddRow("fail-stop errors", report.I64(r.Totals.FailStop), "", "", "", "")
	t.AddRow("silent errors", report.I64(r.Totals.Silent), "", "", "", "")
	t.AddRow("detected corruptions", report.I64(r.Totals.Detected), "", "", "", "")
	t.AddRow("checkpoints", report.I64(r.Totals.Checkpoints), "", "", "", "")
	t.AddRow("verifications", report.I64(r.Totals.Verifications), "", "", "", "")
	t.AddRow("fail recoveries", report.I64(r.Totals.FailRecoveries), "", "", "", "")
	t.AddRow("silent recoveries", report.I64(r.Totals.SilentRecoveries), "", "", "", "")
	if err := t.Render(w); err != nil {
		return err
	}
	for _, p := range r.Plans {
		if _, err := fmt.Fprintf(w, "plan %s/%dn (%d jobs): %s\n", p.Mode, p.Nodes, p.Jobs, p.Plan); err != nil {
			return err
		}
	}
	return nil
}
