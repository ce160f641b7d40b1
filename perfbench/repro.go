package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"respat/internal/core"
	"respat/internal/faults"
	"respat/internal/fleet"
	"respat/internal/harness"
	"respat/internal/multilevel"
	"respat/internal/platform"
	"respat/internal/service"
)

// Campaign sizes. Every timed cell simulates reproPatterns pattern
// instances per run over reproRuns runs; the Fig 6 reference check
// reruns Hera at the larger medium size, where the Monte-Carlo error is
// well inside the 0.5% tolerance.
const (
	reproPatterns = 60
	reproRuns     = 24
	// Each fleet campaign runs as fleetShards cells of fleetJobs jobs,
	// each under its own seed. The fleet cells are the heaviest of a
	// pass; three per mode keep p99 inside the multilevel ones instead
	// of on the edge between two artefacts.
	fleetShards = 3
	fleetJobs   = 1000
	// reproWorkers is the closed-loop worker count; the workers play the
	// part of CampaignWorkers = 2.
	reproWorkers = 2
	// A run sets up reproSetups times; setup_s is their median. Each
	// set-up's warm-up pass is short, so more of them steady the median.
	reproSetups = 5
	// The throughput blocks are one pass of cells; the p99 blocks are
	// p99Passes passes, enough cells for a p99 with ten beyond it.
	p99Passes = 5
	// fig9Nodes is Section 6.4's Hera scaled to 10^5 nodes.
	fig9Nodes = 100_000
)

// Sweeps of cmd/experiments' fast and medium modes.
var (
	weakNodes   = []int{1 << 8, 1 << 10, 1 << 12, 1 << 14, 1 << 15, 1 << 16, 1 << 17, 1 << 18}
	rateFactors = []float64{0.2, 0.5, 0.8, 1.1, 1.4, 1.7, 2.0}
	studyDepths = []int{1, 2, 3}
)

// reproCell is one unit of the paper's evaluation: one harness call for
// one sweep point (or one platform), or one fleet campaign. The closed
// loop times cells one by one, so a cell is paper-repro's request.
type reproCell struct {
	artefact string // per-layer name: table1, fig6, ..., fleet_pattern
	patterns int64  // pattern instances the cell simulates
	jobs     int64  // fleet jobs the cell simulates
	run      func() (any, error)
}

// reproCells lists one regeneration of the artefact set: Table 1, Fig 6
// per platform, Figs 7 and 8 and every Fig 9 point per family, the
// ablation per (platform, family), the multilevel study per (platform,
// depth) and the two fleet campaigns (pattern mode with PDMV,
// multilevel mode with L=3). Cell i simulates under a seed
// derived from (seed, i); the order is a seeded shuffle.
func reproCells(seed uint64) []reproCell {
	plats := platform.Table2()
	both := []core.Kind{core.PD, core.PDMV}
	var cells []reproCell
	opts := func() harness.Options {
		s, _ := faults.SplitSeed(seed, uint64(len(cells)))
		return harness.Options{Patterns: reproPatterns, Runs: reproRuns, Seed: s, Workers: 1, CampaignWorkers: 1}
	}
	const sims = reproPatterns * reproRuns
	add := func(artefact string, patterns, jobs int64, run func() (any, error)) {
		cells = append(cells, reproCell{artefact, patterns, jobs, run})
	}
	add("table1", 0, 0, func() (any, error) { return harness.Table1(plats) })
	for _, p := range plats {
		o := opts()
		add("fig6", int64(len(core.Kinds()))*sims, 0, func() (any, error) { return harness.Fig6([]platform.Platform{p}, o) })
	}
	for _, fig := range []struct {
		name string
		cd   float64
	}{{"fig7", 300}, {"fig8", 90}} {
		for _, nodes := range weakNodes {
			for _, k := range both {
				o := opts()
				add(fig.name, sims, 0, func() (any, error) {
					return harness.WeakScaling([]int{nodes}, fig.cd, 15, []core.Kind{k}, o)
				})
			}
		}
	}
	var pairs [][2]float64
	pairs = append(pairs, harness.Grid(rateFactors)...)
	pairs = append(pairs, harness.AxisFail(rateFactors)...)
	pairs = append(pairs, harness.AxisSilent(rateFactors)...)
	for _, pair := range pairs {
		for _, k := range both {
			o := opts()
			add("fig9", sims, 0, func() (any, error) {
				return harness.RateSweep(fig9Nodes, [][2]float64{pair}, []core.Kind{k}, o)
			})
		}
	}
	for _, p := range plats {
		for _, k := range core.Kinds() {
			add("ablation", 0, 0, func() (any, error) {
				return harness.Ablation([]platform.Platform{p}, []core.Kind{k}, 1)
			})
		}
	}
	for _, p := range plats {
		for _, l := range studyDepths {
			o := opts()
			add("multilevel_study", sims, 0, func() (any, error) {
				rows, err := harness.MultilevelStudy([]platform.Platform{p}, []int{l}, o)
				// PlanTime is wall time, not a result: drop it so a
				// rerun's output compares bit for bit.
				for i := range rows {
					rows[i].PlanTime = 0
				}
				return rows, err
			})
		}
	}
	hera := plats[0]
	for _, fc := range []struct {
		artefact string
		mode     fleet.Mode
	}{{"fleet_pattern", fleet.ModePattern}, {"fleet_multilevel", fleet.ModeMultilevel}} {
		for range fleetShards {
			s, _ := faults.SplitSeed(seed, uint64(len(cells)))
			cfg := fleet.Config{
				Platform: hera, Mode: fc.mode, Family: core.PDMV, Levels: 3,
				NumJobs: fleetJobs, Rate: 1, JobWork: 86400, Backfill: true,
				Seed: s, Workers: 1,
			}
			add(fc.artefact, 0, fleetJobs, func() (any, error) {
				res, err := fleet.Run(cfg)
				if err != nil {
					return nil, err
				}
				b, err := res.JSON()
				return string(b), err
			})
		}
	}
	r := rng(seed, streamCells)
	r.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	return cells
}

// reproRun is a paper-repro deployment: the cell list and the first
// result of every cell, which every later run of the cell must repeat
// bit for bit.
type reproRun struct {
	cells    []reproCell
	first    []atomic.Pointer[cellResult]
	heapBase uint64
	setup    time.Duration
}

type cellResult struct {
	value  any
	digest string
}

// cellWorker is one closed-loop worker's state.
type cellWorker struct {
	checks
	lat  []float64 // ms
	ends []float64 // completion times, s since the phase began
	t0   time.Time // start of the phase
	busy map[string]time.Duration
	log  spanLog
}

// reproPhase is what one closed-loop phase measured.
type reproPhase struct {
	cells   int64
	passes  int64
	elapsed time.Duration
	cpu     time.Duration
	workers [reproWorkers]cellWorker
}

func (p *reproPhase) latencies() []float64 {
	var all []float64
	for w := range p.workers {
		all = append(all, p.workers[w].lat...)
	}
	sort.Float64s(all)
	return all
}

// timeline returns the phase's cells in completion order: their
// completion times and latencies.
func (p *reproPhase) timeline() (ends, lat []float64) {
	var e, t [reproWorkers][]float64
	for w := range p.workers {
		e[w], t[w] = p.workers[w].ends, p.workers[w].lat
	}
	return completionOrder(e[:], t[:])
}

func (p *reproPhase) tally(res *result) {
	for w := range p.workers {
		res.add(&p.workers[w].checks)
	}
}

// busy sums the workers' time inside the named artefact's calls.
func (p *reproPhase) busy(artefact string) time.Duration {
	var d time.Duration
	for w := range p.workers {
		d += p.workers[w].busy[artefact]
	}
	return d
}

// wallSplit is the phase's wall time per pass, split between the
// artefact cells (repro) and the fleet cells (fleet) by their shares of
// the workers' busy time.
func (p *reproPhase) wallSplit() (repro, fleet float64) {
	var all, fl time.Duration
	for w := range p.workers {
		for artefact, d := range p.workers[w].busy {
			all += d
			if strings.HasPrefix(artefact, "fleet_") {
				fl += d
			}
		}
	}
	perPass := p.elapsed.Seconds() / float64(p.passes)
	share := ratio(fl.Seconds(), all.Seconds())
	return perPass * (1 - share), perPass * share
}

func (p *reproPhase) spanLogs() []*spanLog {
	logs := make([]*spanLog, 0, len(p.workers))
	for w := range p.workers {
		logs = append(logs, &p.workers[w].log)
	}
	return logs
}

func setUpRepro(seed uint64) (*reproRun, error) {
	start := time.Now()
	cells := reproCells(seed)
	r := &reproRun{cells: cells, first: make([]atomic.Pointer[cellResult], len(cells))}
	synth := time.Since(start)
	r.heapBase = liveHeap()
	start = time.Now()
	var warm result
	r.drive(time.Time{}, 1, false, time.Now()).tally(&warm)
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up pass failed: %v", warm.failures)
	}
	r.setup = synth + time.Since(start)
	return r, nil
}

// drive runs the cells in the closed loop: each worker claims the next
// cell as soon as its previous one returns. It runs whole passes:
// maxPasses of them, or, with a deadline, until the first pass boundary
// after it.
func (r *reproRun) drive(deadline time.Time, maxPasses int64, traced bool, epoch time.Time) *reproPhase {
	ph := &reproPhase{}
	n := int64(len(r.cells))
	var mu sync.Mutex
	next, stopped := int64(0), false
	claim := func() int64 {
		mu.Lock()
		defer mu.Unlock()
		if next%n == 0 && (next/n >= maxPasses || (!deadline.IsZero() && time.Now().After(deadline))) {
			stopped = true
		}
		if stopped {
			return -1
		}
		next++
		return next - 1
	}
	cpu0 := cpuTime()
	start := time.Now()
	var wg sync.WaitGroup
	for w := range ph.workers {
		wk := &ph.workers[w]
		wk.t0 = start
		wk.busy = make(map[string]time.Duration)
		wk.log.epoch = epoch
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := claim(); i >= 0; i = claim() {
				r.runCell(wk, i, traced)
			}
		}()
	}
	wg.Wait()
	ph.elapsed = time.Since(start)
	ph.cpu = cpuTime() - cpu0
	ph.cells = next
	ph.passes = next / n
	return ph
}

// runCell runs cell i%len(cells) of the loop and checks its result
// against the cell's first result.
func (r *reproRun) runCell(wk *cellWorker, i int64, traced bool) {
	j := int(i % int64(len(r.cells)))
	c := &r.cells[j]
	wk.attempted++
	start := time.Now()
	v, err := c.run()
	callEnd := time.Now()
	var digest string
	if err == nil {
		digest = fmt.Sprint(v)
		if p := r.first[j].Load(); p != nil {
			if p.digest != digest {
				wk.fail("cell %d (%s): result differs from its first run", j, c.artefact)
			}
		} else if !r.first[j].CompareAndSwap(nil, &cellResult{v, digest}) && r.first[j].Load().digest != digest {
			wk.fail("cell %d (%s): result differs from its first run", j, c.artefact)
		}
	} else {
		wk.fail("cell %d (%s): %v", j, c.artefact, err)
	}
	end := time.Now()
	wk.lat = append(wk.lat, float64(end.Sub(start).Nanoseconds())/1e6)
	wk.ends = append(wk.ends, end.Sub(wk.t0).Seconds())
	wk.busy[c.artefact] += callEnd.Sub(start)
	if traced {
		id := fmt.Sprintf("%016x", uint64(i))
		wk.log.add(id, "cell", "", start, end, "")
		wk.log.add(id, c.artefact, "cell", start, callEnd, "")
	}
}

// runRepro runs paper-repro.
func runRepro(o options) (result, error) {
	if o.trace {
		return traceRepro(o)
	}
	var setupS []float64
	var r *reproRun
	for k := 0; k < reproSetups; k++ {
		r = nil
		var err error
		if r, err = setUpRepro(o.seed); err != nil {
			return result{}, err
		}
		setupS = append(setupS, r.setup.Seconds())
	}
	ph := r.drive(time.Now().Add(o.seconds), math.MaxInt64, false, time.Now())
	lat := ph.latencies()
	p50, err := percentile(lat, 0.50)
	if err != nil {
		return result{}, err
	}
	ends, tlat := ph.timeline()
	rps, p99, err := blockMetrics(ends, tlat, len(r.cells), p99Passes*len(r.cells))
	if err != nil {
		return result{}, err
	}
	var res result
	ph.tally(&res)
	cc, err := r.check(&res, o.seed, false)
	if err != nil {
		return res, err
	}
	for w := range ph.workers {
		ph.workers[w].lat, ph.workers[w].ends = nil, nil
	}
	heap := liveHeap()
	runtime.KeepAlive(r)
	runtime.KeepAlive(cc)
	res.fingerprint = r.fingerprint()
	res.metrics = []metric{
		rps,
		{"setup_s", "s", median(setupS), len(setupS)},
		{"live_heap_mb", "MB", (float64(heap) - float64(r.heapBase)) / (1 << 20), 0},
	}
	repro, fleetS := ph.wallSplit()
	res.notes = []metric{
		p99,
		{"p50_ms", "ms", p50, len(lat)},
		{"repro_s", "s", repro, int(ph.passes)},
		{"fleet_s", "s", fleetS, int(ph.passes)},
	}
	return res, nil
}

// fingerprint lists the counts the seed determines: the cells and
// simulated pattern instances of one pass, and the multilevel planner's
// search counts summed over the study.
func (r *reproRun) fingerprint() []count {
	var patterns, jobs, leaves, evaluated int64
	for j, c := range r.cells {
		patterns += c.patterns
		jobs += c.jobs
		if c.artefact != "multilevel_study" {
			continue
		}
		if p := r.first[j].Load(); p != nil {
			for _, row := range p.value.([]harness.MultilevelRow) {
				leaves += int64(row.PlanStats.Leaves)
				evaluated += int64(row.PlanStats.Evaluated)
			}
		}
	}
	return []count{
		{"cells_per_pass", int64(len(r.cells)), false},
		{"patterns_per_pass", patterns, false},
		{"fleet_jobs_per_pass", jobs, false},
		{"study_leaves", leaves, false},
		{"study_evaluated", evaluated, false},
	}
}

// studyParams returns the multilevel configurations of the study.
func studyParams() ([]multilevel.Params, error) {
	var out []multilevel.Params
	for _, p := range platform.Table2() {
		for _, l := range studyDepths {
			params, err := multilevel.FromPlatform(p, l)
			if err != nil {
				return nil, err
			}
			out = append(out, params)
		}
	}
	return out, nil
}

// traceRepro is the traced run of paper-repro: after the warm-up pass,
// a reference phase and a traced phase each run for half the time; the
// traced phase records a span per cell and a child span around its
// harness or fleet call. The cross-check deployment is traced too and
// gives the service and cluster layers; a replay of the paper's own
// configurations gives the planner layers.
func traceRepro(o options) (result, error) {
	var res result
	r, err := setUpRepro(o.seed)
	if err != nil {
		return res, err
	}
	half := o.seconds / 2
	ref := r.drive(time.Now().Add(half), math.MaxInt64, false, time.Now())
	ref.tally(&res)
	epoch := time.Now()
	tp := r.drive(epoch.Add(half), math.MaxInt64, true, epoch)
	tp.tally(&res)
	cc, err := r.check(&res, o.seed, true)
	if err != nil {
		return res, err
	}
	res.fingerprint = r.fingerprint()

	// The cross-check's client self time is a request's; paper-repro's
	// own is a cell's.
	measured, _ := cc.l.spanLayers()
	measured = append(measured, tp.cellSelf())
	ctr := cc.l.d.counters()
	sent := int64(len(cc.l.items))
	measured = append(measured,
		metric{"service.hit_ratio", "ratio", ratio(float64(ctr.hits), float64(ctr.hits+ctr.misses+ctr.coalesced)), 0},
		metric{"service.cold_computes", "count", float64(ctr.misses), 0},
		metric{"service.evictions", "count", float64(ctr.evictions), 0},
		metric{"service.coalesced", "count", float64(ctr.coalesced), 0},
		metric{"service.shed", "count", float64(ctr.shed), 0},
		metric{"cluster.forward_share", "ratio", ratio(float64(ctr.forwarded), float64(sent)), int(sent)},
		metric{"sched.cpu_util", "ratio", cpuUtil(ref.cpu, ref.elapsed), 0},
		metric{"obs.tracing_overhead_us", "us", (mean(tp.latencies()) - mean(ref.latencies())) * 1e3, int(tp.cells)},
	)
	keys := make([]service.Key, len(cc.l.items))
	for i := range keys {
		keys[i] = cc.l.items[i].key
	}
	route, err := routeNS(keys)
	if err != nil {
		return res, err
	}
	measured = append(measured, metric{"cluster.route_ns", "ns", route, len(keys)})
	measured = append(measured, r.layers(tp)...)

	var singles []singleConfig
	for _, p := range platform.Table2() {
		for _, k := range core.Kinds() {
			singles = append(singles, singleConfig{k, p.Costs, p.Rates})
		}
	}
	mls, err := studyParams()
	if err != nil {
		return res, err
	}
	rp, err := replay(singles, mls)
	if err != nil {
		return res, err
	}
	measured = append(measured, rp.metrics()...)
	if res.metrics, err = layerMetrics(measured); err != nil {
		return res, err
	}
	return res, writeSpanFiles([]spanFile{
		{"paper-repro", tp.spanLogs()},
		{"paper-repro-cross-check", cc.l.spanLogs()},
	}, o.seed)
}

// layers derives the harness, simulator and fleet layer metrics from a
// phase of whole passes: each artefact's time inside its calls per
// pass, simulated pattern instances per second inside the simulating
// calls, and jobs per second inside each fleet campaign's calls.
func (r *reproRun) layers(ph *reproPhase) []metric {
	passes := float64(ph.passes)
	patterns, jobs := map[string]int64{}, map[string]int64{}
	for _, c := range r.cells {
		patterns[c.artefact] += c.patterns
		jobs[c.artefact] += c.jobs
	}
	var out []metric
	var simPatterns int64
	var simBusy time.Duration
	for _, a := range []string{"table1", "fig6", "fig7", "fig8", "fig9", "ablation", "multilevel_study"} {
		out = append(out, metric{"harness." + a + "_s", "s", ph.busy(a).Seconds() / passes, int(ph.passes)})
		if patterns[a] > 0 {
			simPatterns += patterns[a]
			simBusy += ph.busy(a)
		}
	}
	jobsPerS := func(a string) float64 { return ratio(float64(jobs[a])*passes, ph.busy(a).Seconds()) }
	return append(out,
		metric{"sim.patterns_per_s", "1/s", ratio(float64(simPatterns)*passes, simBusy.Seconds()), int(ph.passes)},
		metric{"fleet.pattern_jobs_per_s", "1/s", jobsPerS("fleet_pattern"), int(ph.passes)},
		metric{"fleet.multilevel_jobs_per_s", "1/s", jobsPerS("fleet_multilevel"), int(ph.passes)},
	)
}

// cellSelf is the benchmark's own time per cell of a traced phase: the
// cell span minus the call inside it.
func (p *reproPhase) cellSelf() metric {
	var selfSum float64
	var cells int
	for w := range p.workers {
		spans := p.workers[w].log.spans
		for i := 0; i+1 < len(spans); i += 2 { // a cell span, then its call
			selfSum += float64(spans[i].durNS() - spans[i+1].durNS())
			cells++
		}
	}
	return metric{"bench.client_self_us", "us", ratio(selfSum, float64(cells)) / 1e3, cells}
}
