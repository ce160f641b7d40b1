package sim

import (
	"math"
	"math/rand/v2"
	"testing"

	"respat/internal/analytic"
	"respat/internal/core"
	"respat/internal/faults"
	"respat/internal/multilevel"
	"respat/internal/platform"
	"respat/internal/stats"
)

// oracleRun is Run as it was before the campaign layer: one executor
// from oracle_test.go, runs in order, the same reduction.
func oracleRun(cfg Config) Result {
	ex := newExecutor(&cfg, newPlan(cfg.Pattern))
	work := cfg.Pattern.W * float64(cfg.Patterns)
	res := Result{Runs: cfg.Runs, Patterns: cfg.Patterns, PatternWork: cfg.Pattern.W}
	for run := 0; run < cfg.Runs; run++ {
		ex.reset(run)
		cnt, elapsed := ex.runAll()
		res.Overhead.Add((elapsed - work) / work)
		res.WallTime.Add(elapsed)
		res.Total.Add(cnt)
	}
	return res
}

// oracleTrace is TraceOne on the oracle executor.
func oracleTrace(cfg Config, run int) ([]Event, Counters) {
	ex := newExecutor(&cfg, newPlan(cfg.Pattern))
	ex.reset(run)
	var events []Event
	ex.rec = func(e Event) { events = append(events, e) }
	cnt, _ := ex.runAll()
	return events, cnt
}

// oracleRunMultilevel is RunMultilevel on the oracle executor.
func oracleRunMultilevel(cfg MultilevelConfig) (MultilevelResult, error) {
	layout, err := cfg.Params.Layout(cfg.Spec)
	if err != nil {
		return MultilevelResult{}, err
	}
	ex := newMLExecutor(&cfg, &layout)
	work := cfg.Spec.W * float64(cfg.Patterns)
	res := MultilevelResult{Runs: cfg.Runs, Patterns: cfg.Patterns, PatternWork: cfg.Spec.W}
	for run := 0; run < cfg.Runs; run++ {
		ex.reset(run)
		cnt, elapsed := ex.runAll()
		res.Overhead.Add((elapsed - work) / work)
		res.WallTime.Add(elapsed)
		res.Total.Add(cnt)
	}
	return res, nil
}

// sameSample reports whether two samples agree bit for bit.
func sameSample(a, b stats.Sample) bool {
	bits := func(s stats.Sample) [5]uint64 {
		return [5]uint64{uint64(s.N()), math.Float64bits(s.Mean()), math.Float64bits(s.Var()),
			math.Float64bits(s.Min()), math.Float64bits(s.Max())}
	}
	return bits(a) == bits(b)
}

// scatter multiplies x by a log-uniform factor in [lo, hi].
func scatter(rng *rand.Rand, x, lo, hi float64) float64 {
	return x * math.Exp(math.Log(lo)+rng.Float64()*math.Log(hi/lo))
}

// randomPatternConfig draws a single-level campaign: a Table 2 platform
// with rates and costs scattered x0.5-x10, a random family and layout,
// ErrorsInOps on or off, and exponential, Weibull or trace sources.
func randomPatternConfig(t *testing.T, rng *rand.Rand) Config {
	t.Helper()
	plats := platform.Table2()
	pl := plats[rng.IntN(len(plats))]
	c := pl.Costs
	for _, x := range []*float64{&c.DiskCkpt, &c.MemCkpt, &c.DiskRec, &c.MemRec, &c.GuarVer, &c.PartVer} {
		*x = scatter(rng, *x, 0.5, 10)
	}
	c.Recall = 0.2 + 0.8*rng.Float64()
	r := core.Rates{FailStop: scatter(rng, pl.Rates.FailStop, 0.5, 10), Silent: scatter(rng, pl.Rates.Silent, 0.5, 10)}
	kind := core.Kinds()[rng.IntN(6)]
	plan, err := analytic.Optimal(kind, c, r)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := core.Layout(kind, scatter(rng, plan.W, 0.5, 2), 1+rng.IntN(4), 1+rng.IntN(6), c.Recall)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Pattern: pat, Costs: c, Rates: r,
		Patterns: 2 + rng.IntN(6), Runs: 1 + rng.IntN(4), Seed: rng.Uint64(),
		ErrorsInOps: rng.IntN(2) == 0,
	}
	failGap, silentGap := 1/r.FailStop, 1/r.Silent // mean gaps
	switch rng.IntN(3) {
	case 1:
		seed := rng.Uint64()
		weibull := func(shape, mean float64, stream uint64) func(int) faults.Source {
			return func(run int) faults.Source {
				s1, s2 := faults.SplitSeed(seed, 2*uint64(run)+stream)
				src, err := faults.NewWeibull(shape, mean/math.Gamma(1+1/shape), s1, s2)
				if err != nil {
					t.Fatal(err)
				}
				return src
			}
		}
		cfg.FailSource = weibull(0.5+rng.Float64(), failGap, 0)
		cfg.SilentSource = weibull(0.5+rng.Float64(), silentGap, 1)
	case 2:
		trace := func(gap float64) []float64 {
			var ts []float64
			now := 0.0
			for i := 0; i < 40; i++ {
				now += gap * 2 * rng.Float64()
				ts = append(ts, now)
			}
			return ts
		}
		failTimes, silentTimes := trace(failGap), trace(silentGap)
		cfg.FailSource = func(int) faults.Source { return faults.NewTrace(failTimes) }
		cfg.SilentSource = func(int) faults.Source { return faults.NewTrace(silentTimes) }
	}
	return cfg
}

// TestRunMatchesOracleExecutor holds Run and TraceOne, now the engine
// executor run with no application, to the executor this package used
// to own: Result bits, counters and timelines on random inputs.
func TestRunMatchesOracleExecutor(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 2016))
	var total Counters
	for trial := 0; trial < 600; trial++ {
		cfg := randomPatternConfig(t, rng)
		cfg.Workers = 1 + rng.IntN(3)
		got, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := oracleRun(cfg)
		if got.Total != want.Total || !sameSample(got.Overhead, want.Overhead) ||
			!sameSample(got.WallTime, want.WallTime) || got.Runs != want.Runs ||
			got.Patterns != want.Patterns || got.PatternWork != want.PatternWork {
			t.Fatalf("trial %d (%v, %+v): result\n%+v\nwant\n%+v", trial, cfg.Pattern, cfg.Costs, got, want)
		}
		total.Add(got.Total)
		if trial%5 == 0 {
			run := rng.IntN(3)
			events, cnt, err := TraceOne(cfg, run)
			if err != nil {
				t.Fatal(err)
			}
			wantEvents, wantCnt := oracleTrace(cfg, run)
			if cnt != wantCnt || len(events) != len(wantEvents) {
				t.Fatalf("trial %d: trace counters %+v / %d events, want %+v / %d",
					trial, cnt, len(events), wantCnt, len(wantEvents))
			}
			for i := range events {
				if events[i] != wantEvents[i] || math.Float64bits(events[i].Time) != math.Float64bits(wantEvents[i].Time) {
					t.Fatalf("trial %d: event %d = %v, want %v", trial, i, events[i], wantEvents[i])
				}
			}
		}
	}
	if total.DiskRecs == 0 || total.MemRecs == 0 || total.DetectByPart == 0 || total.SilentMasked == 0 {
		t.Errorf("trials miss a protocol path: %+v", total)
	}
}

// TestRunMultilevelMatchesOracleExecutor holds RunMultilevel, now the
// multilevel runtime executor run with no application, to the executor
// this package used to own, on random hierarchies of depth 1-4.
func TestRunMultilevelMatchesOracleExecutor(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 2016))
	plats := platform.Table2()
	var total MultilevelCounters
	ran := 0
	for trial := 0; trial < 400; trial++ {
		levels := 1 + trial%multilevel.MaxLevels
		pl := plats[rng.IntN(len(plats))]
		p, err := multilevel.FromPlatform(pl, levels)
		if err != nil {
			t.Fatal(err)
		}
		var shares float64
		for l := range p.Levels {
			p.Levels[l].Ckpt = scatter(rng, p.Levels[l].Ckpt, 0.5, 10)
			p.Levels[l].Rec = scatter(rng, p.Levels[l].Rec, 0.5, 10)
			p.Levels[l].Share = 0.05 + rng.Float64()
			shares += p.Levels[l].Share
		}
		for l := range p.Levels {
			p.Levels[l].Share /= shares
		}
		p.GuarVer = scatter(rng, p.GuarVer, 0.5, 10)
		p.PartVer = scatter(rng, p.PartVer, 0.5, 10)
		p.Recall = 0.2 + 0.8*rng.Float64()
		p.InteriorGuaranteed = rng.IntN(2) == 0
		p.Rates.FailStop = scatter(rng, p.Rates.FailStop, 0.5, 10)
		p.Rates.Silent = scatter(rng, p.Rates.Silent, 0.5, 10)
		plan, err := multilevel.FirstOrderPlan(p)
		if err != nil {
			t.Fatal(err)
		}
		// Simulate near the plan's shape at up to 2x its rates, so every
		// protocol path shows. A pattern expecting more than 3 fail-stop
		// errors, or a level-1 interval expecting more than 3 silent
		// ones, would only make the test slow: each can replay the
		// pattern or the interval, so the time grows exponentially.
		p.Rates.FailStop = scatter(rng, p.Rates.FailStop, 1, 2)
		p.Rates.Silent = scatter(rng, p.Rates.Silent, 1, 2)
		branch := make([]int, levels-1)
		for l := range branch {
			branch[l] = 1 + rng.IntN(3)
		}
		spec := multilevel.UniformSpec(scatter(rng, plan.Spec.W, 0.5, 1.5), branch, 1+rng.IntN(5))
		if p.Rates.FailStop*spec.W > 3 || p.Rates.Silent*spec.W/float64(spec.Counts[0]) > 3 {
			continue
		}
		cfg := MultilevelConfig{
			Params: p, Spec: spec, Patterns: 2 + rng.IntN(5), Runs: 1 + rng.IntN(4),
			Seed: rng.Uint64(), Workers: 1 + rng.IntN(3),
		}
		got, err := RunMultilevel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleRunMultilevel(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got.Total != want.Total || !sameSample(got.Overhead, want.Overhead) ||
			!sameSample(got.WallTime, want.WallTime) || got.Runs != want.Runs ||
			got.Patterns != want.Patterns || got.PatternWork != want.PatternWork {
			t.Fatalf("trial %d (L=%d, %v): result\n%+v\nwant\n%+v", trial, levels, spec, got, want)
		}
		total.Add(got.Total)
		ran++
	}
	if ran < 300 {
		t.Errorf("only %d of 400 trials ran", ran)
	}
	if total.SilentRecs == 0 || total.DetectByPart == 0 || total.Recs[multilevel.MaxLevels-1] == 0 {
		t.Errorf("trials miss a protocol path: %+v", total)
	}
}
