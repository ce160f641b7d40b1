package respat_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"math"
	"testing"

	"respat/internal/analytic"
	"respat/internal/core"
	"respat/internal/engine"
	"respat/internal/faults"
	"respat/internal/fleet"
	"respat/internal/harness"
	"respat/internal/multilevel"
	"respat/internal/platform"
	"respat/internal/sim"
	"respat/internal/stats"
)

// goldenDigests pins SHA-256 digests of every simulated, traced, fleet
// and runtime output family. The digests hash values field by field
// (floats as raw bits), never Go type names, so they survive
// refactorings that move a type but change no output bit. A mismatch
// means some output changed; the digest names the family.
var goldenDigests = map[string]string{
	"sim.Run":           "839e8dd325baea3d35bb589f5490eb9027ff3ccf09d39f499f46746cb0110d0d",
	"sim.TraceOne":      "08b2a1173dfdadd15450ca587a0219e37ae222d6d8a5c9725b60337f1fed3d24",
	"sim.JobSim":        "ced9bd84792a29b19a05bad02addbfd626f51f9b207d2cbcd537955f40b48015",
	"sim.RunMultilevel": "09b2b8ee71cc8fa507c2c4498c9c475d29618414c6fe564239840f4ea2a0c50b",
	"fleet.Run":         "19a5ea9776da9baaca08267964e86c462b8531db7b738efab2df8a687aad6970",
	"harness":           "16679b05f2256bea9958d9da805c4cf886812fe7b974e0cdd6bd76e7fc203078",
	"engine":            "05b7020de9135369b796e5963222fe99f975234db1da407063275ce7893d5b97",
}

func TestOutputGoldenDigests(t *testing.T) {
	got := map[string]string{
		"sim.Run":           digestSimRun(t),
		"sim.TraceOne":      digestTraceOne(t),
		"sim.JobSim":        digestJobSims(t),
		"sim.RunMultilevel": digestRunMultilevel(t),
		"fleet.Run":         digestFleet(t),
		"harness":           digestHarness(t),
		"engine":            digestEngines(t),
	}
	for name, want := range goldenDigests {
		if got[name] != want {
			t.Errorf("%s: digest %s, want %s", name, got[name], want)
		}
	}
}

// digester hashes a stream of values: floats by their bits, everything
// else by its %v rendering, each followed by a separator.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) put(vs ...any) {
	for _, v := range vs {
		switch x := v.(type) {
		case float64:
			var b [8]byte
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
			d.h.Write(b[:])
		default:
			fmt.Fprintf(d.h, "%v", x)
		}
		d.h.Write([]byte{';'})
	}
}

func (d *digester) sample(s stats.Sample) {
	d.put(s.N(), s.Mean(), s.Var(), s.Min(), s.Max(), s.CI95())
}

func (d *digester) counters(c sim.Counters) {
	d.put(c.FailStop, c.Silent, c.SilentMasked, c.DiskCkpts, c.MemCkpts,
		c.PartVerifs, c.GuarVerifs, c.DiskRecs, c.MemRecs, c.DetectByPart, c.DetectByGuar)
}

func (d *digester) mlCounters(c sim.MultilevelCounters) {
	d.put(c.FailStop, c.Silent, c.PartVerifs, c.GuarVerifs, c.DetectByPart, c.DetectByGuar,
		c.SilentRecs, c.Ckpts, c.Recs)
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// goldenPlans returns the first-order optimal pattern of every Table 2
// platform and family.
func goldenPlans(t *testing.T) []sim.Config {
	t.Helper()
	var cfgs []sim.Config
	for _, pl := range platform.Table2() {
		for _, k := range core.Kinds() {
			plan, err := analytic.Optimal(k, pl.Costs, pl.Rates)
			if err != nil {
				t.Fatal(err)
			}
			cfgs = append(cfgs, sim.Config{Pattern: plan.Pattern, Costs: pl.Costs, Rates: pl.Rates})
		}
	}
	return cfgs
}

func weibull(shape float64, rate float64, seed uint64, stream uint64) func(run int) faults.Source {
	return func(run int) faults.Source {
		s1, s2 := faults.SplitSeed(seed, stream+uint64(run)*2)
		// Scale chosen so the mean gap is 1/rate.
		src, err := faults.NewWeibull(shape, 1/(rate*math.Gamma(1+1/shape)), s1, s2)
		if err != nil {
			panic(err)
		}
		return src
	}
}

func digestSimRun(t *testing.T) string {
	d := newDigester()
	for i, base := range goldenPlans(t) {
		for _, scale := range []float64{1, 25} {
			for _, ops := range []bool{false, true} {
				for _, workers := range []int{1, 3} {
					cfg := base
					cfg.Rates = core.Rates{FailStop: scale * base.Rates.FailStop, Silent: scale * base.Rates.Silent}
					cfg.Patterns, cfg.Runs, cfg.Seed = 6, 5, uint64(100+i)
					cfg.ErrorsInOps, cfg.Workers = ops, workers
					res, err := sim.Run(cfg)
					if err != nil {
						t.Fatal(err)
					}
					d.put(i, scale, ops, workers, res.Runs, res.Patterns, res.PatternWork)
					d.sample(res.Overhead)
					d.sample(res.WallTime)
					d.counters(res.Total)
				}
			}
		}
		if i%3 == 0 {
			// Weibull arrivals at 10x the platform rates exercise the
			// source overrides.
			cfg := base
			cfg.Patterns, cfg.Runs, cfg.Seed, cfg.ErrorsInOps = 4, 3, uint64(7+i), i%2 == 0
			cfg.FailSource = weibull(0.7, 10*base.Rates.FailStop, uint64(i), 0)
			cfg.SilentSource = weibull(1.5, 10*base.Rates.Silent, uint64(i), 1)
			res, err := sim.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d.put("weibull", i)
			d.sample(res.Overhead)
			d.sample(res.WallTime)
			d.counters(res.Total)
		}
	}
	return d.sum()
}

func digestTraceOne(t *testing.T) string {
	d := newDigester()
	for i, base := range goldenPlans(t) {
		if i%4 != 1 {
			continue
		}
		cfg := base
		// Rates scaled up so the timelines carry every event kind.
		cfg.Rates = core.Rates{FailStop: 30 * base.Rates.FailStop, Silent: 30 * base.Rates.Silent}
		cfg.Patterns, cfg.Seed, cfg.ErrorsInOps = 3, uint64(i), i%2 == 1
		events, cnt, err := sim.TraceOne(cfg, i)
		if err != nil {
			t.Fatal(err)
		}
		d.put(i, len(events))
		for _, e := range events {
			d.put(e.Time, int(e.Kind), int(e.Op), e.Segment, e.Pattern, e.String())
		}
		d.counters(cnt)
	}
	return d.sum()
}

func goldenMultilevel(t *testing.T, pl platform.Platform, levels int, interiorGuar bool) (multilevel.Params, multilevel.Spec) {
	t.Helper()
	p, err := multilevel.FromPlatform(pl, levels)
	if err != nil {
		t.Fatal(err)
	}
	p.InteriorGuaranteed = interiorGuar
	plan, err := multilevel.FirstOrderPlan(p)
	if err != nil {
		t.Fatal(err)
	}
	return p, plan.Spec
}

func digestJobSims(t *testing.T) string {
	d := newDigester()
	for i, base := range goldenPlans(t) {
		if i%5 != 0 {
			continue
		}
		base.ErrorsInOps = true
		base.Rates = core.Rates{FailStop: 20 * base.Rates.FailStop, Silent: 20 * base.Rates.Silent}
		js, err := sim.NewJobSim(base)
		if err != nil {
			t.Fatal(err)
		}
		for job := 0; job < 4; job++ {
			cnt, elapsed, err := js.Run(uint64(1000*i+job), 1+job)
			if err != nil {
				t.Fatal(err)
			}
			d.put(i, job, elapsed, js.Work())
			d.counters(cnt)
		}
	}
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	for l := 1; l <= multilevel.MaxLevels; l++ {
		p, s := goldenMultilevel(t, hera.ScaleRates(20, 20), l, l%2 == 0)
		js, err := sim.NewMLJobSim(sim.MultilevelConfig{Params: p, Spec: s})
		if err != nil {
			t.Fatal(err)
		}
		for job := 0; job < 4; job++ {
			cnt, elapsed, err := js.Run(uint64(77*l+job), 1+job)
			if err != nil {
				t.Fatal(err)
			}
			d.put(l, job, elapsed, js.Work())
			d.mlCounters(cnt)
		}
	}
	return d.sum()
}

func digestRunMultilevel(t *testing.T) string {
	d := newDigester()
	for _, name := range []string{"Hera", "Coastal-SSD"} {
		pl, err := platform.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for l := 1; l <= multilevel.MaxLevels; l++ {
			for _, guar := range []bool{false, true} {
				p, s := goldenMultilevel(t, pl.ScaleRates(10, 10), l, guar)
				for _, workers := range []int{1, 3} {
					res, err := sim.RunMultilevel(sim.MultilevelConfig{
						Params: p, Spec: s, Patterns: 5, Runs: 4, Seed: uint64(l), Workers: workers,
					})
					if err != nil {
						t.Fatal(err)
					}
					d.put(name, l, guar, workers, res.Runs, res.Patterns, res.PatternWork)
					d.sample(res.Overhead)
					d.sample(res.WallTime)
					d.mlCounters(res.Total)
				}
			}
		}
	}
	return d.sum()
}

func digestFleet(t *testing.T) string {
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	d := newDigester()
	for _, cfg := range []fleet.Config{
		{Platform: hera, Nodes: 64, Family: core.PDMV, NumJobs: 150, Rate: 0.5, JobWork: 86400,
			WorkSpread: 4, Backfill: true, Seed: 42, Workers: 2},
		{Platform: hera, Nodes: 32, Mode: fleet.ModeMultilevel, Levels: 3, NumJobs: 80, Rate: 0.1,
			JobWork: 200000, JobNodes: 8, Seed: 7, Workers: 2},
		{Platform: hera, Nodes: 32, Mode: fleet.ModeTwoLevel, NumJobs: 60, Rate: 0.2,
			JobWork: 100000, Seed: 9, Workers: 1},
	} {
		res, err := fleet.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := res.JSON()
		if err != nil {
			t.Fatal(err)
		}
		d.put(string(b))
	}
	return d.sum()
}

func digestHarness(t *testing.T) string {
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	o := harness.Options{Patterns: 8, Runs: 4, Seed: 3, Workers: 2, CampaignWorkers: 2}
	d := newDigester()
	rows, err := harness.Fig6([]platform.Platform{hera}, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		d.put(fmt.Sprintf("%v", r))
	}
	mlRows, err := harness.MultilevelStudy([]platform.Platform{hera}, []int{1, 2, 3}, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range mlRows {
		r.PlanTime = 0 // wall time, not an output of the model
		d.put(fmt.Sprintf("%v", r))
	}
	return d.sum()
}

// goldenApp is a stateful application: its value is the work done and
// its garbage the injected corruptions.
type goldenApp struct{ value, garbage float64 }

func (a *goldenApp) Advance(w float64) error { a.value += w; return nil }

func (a *goldenApp) Snapshot() ([]byte, error) {
	b := make([]byte, 16)
	binary.LittleEndian.PutUint64(b, math.Float64bits(a.value))
	binary.LittleEndian.PutUint64(b[8:], math.Float64bits(a.garbage))
	return b, nil
}

func (a *goldenApp) Restore(b []byte) error {
	if len(b) != 16 {
		return errors.New("bad snapshot")
	}
	a.value = math.Float64frombits(binary.LittleEndian.Uint64(b))
	a.garbage = math.Float64frombits(binary.LittleEndian.Uint64(b[8:]))
	return nil
}

func corruptGolden(app engine.Application) error { app.(*goldenApp).garbage++; return nil }

func garbageFree(app any) (bool, error) { return app.(*goldenApp).garbage == 0, nil }

// verifierFunc adapts a function to a Verifier over any Application
// type A.
type verifierFunc[A any] func(A) (bool, error)

func (f verifierFunc[A]) Check(app A) (bool, error) { return f(app) }

// setHooks installs a corruption hook as *corrupt and, if verify, a
// garbage-checking verifier as *partial, instantiated at the
// Application type the config's hooks name, so the multilevel runtime
// digest does not depend on which package declares that type.
func setHooks[A, V any](corrupt *func(A) error, partial *V, verify bool) {
	*corrupt = func(app A) error { any(app).(*goldenApp).garbage++; return nil }
	if verify {
		*partial = any(verifierFunc[A](func(app A) (bool, error) { return garbageFree(app) })).(V)
	}
}

func expSource(t *testing.T, rate float64, seed, stream uint64) faults.Source {
	s1, s2 := faults.SplitSeed(seed, stream)
	src, err := faults.NewExponential(rate, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func digestEngines(t *testing.T) string {
	d := newDigester()
	costs := core.Costs{DiskCkpt: 60, MemCkpt: 12, DiskRec: 60, MemRec: 12, GuarVer: 15, PartVer: 2, Recall: 0.8}
	for trial := 0; trial < 12; trial++ {
		k := core.Kinds()[trial%6]
		p1, err := core.Layout(k, 3000, 2, 3, costs.Recall)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := core.Layout(k, 1800, 1+trial%3, 2, costs.Recall)
		if err != nil {
			t.Fatal(err)
		}
		app := &goldenApp{}
		cfg := engine.Config{
			App: app, Pattern: p1, Costs: costs, Patterns: 6,
			FailStop:    expSource(t, 1e-4, uint64(trial), 0),
			Silent:      expSource(t, 2e-4, uint64(trial), 1),
			Corrupt:     corruptGolden,
			Detect:      faults.NewBernoulli(uint64(trial), 3),
			ErrorsInOps: trial%2 == 0,
		}
		if trial%3 == 1 {
			cfg.Partial = engine.VerifierFunc(func(a engine.Application) (bool, error) { return garbageFree(a) })
		}
		if trial%4 < 2 {
			cfg.Boundary = func(done int, rep engine.Report) (*core.Pattern, error) {
				d.put("boundary", done, rep.Time, rep.FailStopExposure, rep.SilentExposure)
				if done%2 == 1 {
					return &p2, nil
				}
				return &p1, nil
			}
		}
		if trial >= 8 {
			cfg.Patterns, cfg.TargetWork = 0, 14000
		}
		rep, err := engine.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.put(trial, rep.Time, rep.Work, rep.Overhead, rep.FailStop, rep.Silent, rep.DiskCkpts,
			rep.MemCkpts, rep.PartVerifs, rep.GuarVerifs, rep.DiskRecs, rep.MemRecs,
			rep.DetectByPart, rep.DetectByGuar, rep.PlanSwaps, rep.FailStopExposure,
			rep.SilentExposure, rep.FinalTainted, app.value, app.garbage)
	}
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	for l := 1; l <= multilevel.MaxLevels; l++ {
		p, s := goldenMultilevel(t, hera.ScaleRates(40, 40), l, l == 3)
		alt := s
		alt.W *= 0.6
		app := &goldenApp{}
		cfg := multilevel.EngineConfig{
			App: app, Params: p, Spec: s, Patterns: 5,
			FailStop:  expSource(t, p.Rates.FailStop, uint64(l), 10),
			Silent:    expSource(t, p.Rates.Silent, uint64(l), 11),
			LevelDraw: faults.NewBernoulli(uint64(l), 12),
			Detect:    faults.NewBernoulli(uint64(l), 13),
			Boundary: func(done int, rep multilevel.Report) (*multilevel.Spec, error) {
				d.put("ml-boundary", done, rep.Time, rep.FailStopExposure, rep.SilentExposure)
				if done == 2 {
					return &alt, nil
				}
				return nil, nil
			},
		}
		setHooks(&cfg.Corrupt, &cfg.Partial, l%2 == 0)
		if l == 4 {
			cfg.Patterns, cfg.TargetWork = 0, 4*s.W
		}
		rep, err := multilevel.RunEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		d.put(l, rep.Time, rep.Work, rep.Overhead, rep.FailStop, rep.Silent, rep.PartVerifs,
			rep.GuarVerifs, rep.DetectByPart, rep.DetectByGuar, rep.SilentRecs, rep.Ckpts,
			rep.Recs, rep.PlanSwaps, rep.FailStopExposure, rep.SilentExposure,
			rep.FinalTainted, app.value, app.garbage)
	}
	return d.sum()
}
