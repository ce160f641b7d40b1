package sim

import (
	"strings"
	"testing"

	"respat/internal/core"
	"respat/internal/engine"
)

func TestTraceOneCleanRun(t *testing.T) {
	c := testCosts()
	p := mustLayout(t, core.PDV, 100, 1, 2, 1)
	events, cnt, err := TraceOne(Config{
		Pattern: p, Costs: c, Patterns: 1, Runs: 99, // Runs ignored
		Seed:       1,
		FailSource: never, SilentSource: never,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// chunk, partverif, chunk, guarverif, memckpt, disk, pattern-done.
	wantKinds := []engine.EventKind{engine.EvOpDone, engine.EvOpDone, engine.EvOpDone, engine.EvOpDone, engine.EvOpDone, engine.EvOpDone, engine.EvPatternDone}
	wantOps := []core.Op{core.OpChunk, core.OpPartVer, core.OpChunk, core.OpGuarVer, core.OpMemCkpt, core.OpDisk, core.OpDisk}
	if len(events) != len(wantKinds) {
		t.Fatalf("got %d events: %v", len(events), events)
	}
	for i, e := range events {
		if e.Kind != wantKinds[i] {
			t.Errorf("event %d kind = %v, want %v", i, e.Kind, wantKinds[i])
		}
		if e.Kind == engine.EvOpDone && e.Op != wantOps[i] {
			t.Errorf("event %d op = %v, want %v", i, e.Op, wantOps[i])
		}
	}
	// Final event time equals the error-free traversal time.
	if got, want := events[len(events)-1].Time, p.W+c.PartVer+c.GuarVer+c.MemCkpt+c.DiskCkpt; got != want {
		t.Errorf("final time %v, want %v", got, want)
	}
	if cnt.DiskCkpts != 1 {
		t.Errorf("counters: %+v", cnt)
	}
}

func TestTraceOneWithErrors(t *testing.T) {
	c := testCosts()
	p := mustLayout(t, core.PD, 100, 1, 1, 1)
	events, cnt, err := TraceOne(Config{
		Pattern: p, Costs: c, Patterns: 1, Seed: 1,
		FailSource:   traceAt(50),
		SilentSource: traceAt(120), // strikes during the replay chunk
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// fail@50, disk-rec, silent during replay, chunk done, guar verif,
	// alarm, mem-rec, replay chunk, guar verif, mem ckpt, disk, done.
	var kinds []engine.EventKind
	for _, e := range events {
		kinds = append(kinds, e.Kind)
	}
	want := []engine.EventKind{
		engine.EvFailStop, engine.EvDiskRec, engine.EvSilent, engine.EvOpDone, engine.EvOpDone, engine.EvDetect,
		engine.EvMemRec, engine.EvOpDone, engine.EvOpDone, engine.EvOpDone, engine.EvOpDone, engine.EvPatternDone,
	}
	if len(kinds) != len(want) {
		t.Fatalf("got %d events:\n%v", len(kinds), events)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("event %d = %v, want %v (all: %v)", i, kinds[i], want[i], kinds)
		}
	}
	if cnt.FailStop != 1 || cnt.Silent != 1 || cnt.MemRecs != 1 || cnt.DiskRecs != 1 {
		t.Errorf("counters: %+v", cnt)
	}
	// Times are monotone non-decreasing.
	for i := 1; i < len(events); i++ {
		if events[i].Time < events[i-1].Time {
			t.Errorf("time went backwards at %d: %v -> %v", i, events[i-1].Time, events[i].Time)
		}
	}
}

func TestTraceOneInvalidConfig(t *testing.T) {
	if _, _, err := TraceOne(Config{}, 0); err == nil {
		t.Error("invalid config should fail")
	}
}

func TestWriteTimeline(t *testing.T) {
	c := testCosts()
	p := mustLayout(t, core.PD, 100, 1, 1, 1)
	events, _, err := TraceOne(Config{
		Pattern: p, Costs: c, Patterns: 1, Seed: 1,
		FailSource: never, SilentSource: never,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteTimeline(&b, events); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "chunk") || !strings.Contains(out, "committed") {
		t.Errorf("timeline incomplete:\n%s", out)
	}
	if got := strings.Count(out, "\n"); got != len(events) {
		t.Errorf("%d lines for %d events", got, len(events))
	}
}

func TestEventKindStrings(t *testing.T) {
	for k := engine.EvOpDone; k <= engine.EvPatternDone; k++ {
		if strings.HasPrefix(k.String(), "EventKind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if engine.EventKind(42).String() != "EventKind(42)" {
		t.Error("unknown kind fallback broken")
	}
}

func TestTracingDoesNotPerturbResults(t *testing.T) {
	// A traced run and an untraced run with identical seeds produce
	// identical counters and times.
	c := testCosts()
	p := mustLayout(t, core.PDMV, 1500, 2, 3, c.Recall)
	cfg := Config{
		Pattern: p, Costs: c,
		Rates:    core.Rates{FailStop: 1e-4, Silent: 2e-4},
		Patterns: 10, Runs: 1, Seed: 33, ErrorsInOps: true,
	}
	events, cnt, err := TraceOne(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cnt != res.Total {
		t.Errorf("traced counters %+v != untraced %+v", cnt, res.Total)
	}
	if len(events) == 0 {
		t.Error("no events recorded")
	}
	if last := events[len(events)-1]; last.Time != res.WallTime.Mean() {
		t.Errorf("traced end time %v != untraced %v", last.Time, res.WallTime.Mean())
	}
}
