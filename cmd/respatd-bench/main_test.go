package main

import (
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"respat/internal/obs"
	"respat/internal/service"
)

// benchTestConfig is the fixed-seed campaign CI gates on.
func benchTestConfig() benchConfig {
	return benchConfig{
		mode:      "closed",
		clients:   8,
		requests:  2000,
		configs:   64,
		endpoints: []string{"plan", "plan/exact"},
		dist:      "uniform",
		seed:      42,
		timeout:   time.Minute,
		sloP99:    5 * time.Second, // generous: the gate is on errors, not machine speed
		sloErr:    0,
		sloQPS:    1,
	}
}

// serve starts respatd's handler on a loopback socket for cfg's
// campaign and points cfg at it. The cold-plan gate is sized to the
// drive concurrency, so the campaign measures the serving path rather
// than admission shedding, and every request is sampled, so each
// response carries Server-Timing. It returns a count of the TCP
// connections the server has accepted.
func serve(t *testing.T, cfg *benchConfig) *atomic.Int64 {
	t.Helper()
	srv := httptest.NewUnstartedServer(service.New(service.Config{
		ColdWorkers: cfg.clients,
		ColdQueue:   8 * cfg.clients,
		Tracer:      obs.New(obs.Config{SampleEvery: 1, Seed: cfg.seed}),
	}).Handler())
	var conns atomic.Int64
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)
	cfg.target = srv.URL
	return &conns
}

// TestClosedLoopSLO is the CI SLO assertion: at a fixed seed, a closed
// loop over a loopback socket completes every request without a single
// error, every response carries Server-Timing, the report passes its
// SLO check, and each client keeps one connection.
func TestClosedLoopSLO(t *testing.T) {
	cfg := benchTestConfig()
	conns := serve(t, &cfg)
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests != cfg.requests {
		t.Fatalf("completed %d requests, want %d", rep.Requests, cfg.requests)
	}
	if rep.Errors != 0 || rep.ErrorRate != 0 {
		t.Fatalf("%d errors (rate %v): %v", rep.Errors, rep.ErrorRate, rep.Status)
	}
	if rep.Status["200"] != cfg.requests {
		t.Fatalf("status spread %v, want all 200", rep.Status)
	}
	if rep.SLO == nil || !rep.SLO.Pass {
		t.Fatalf("SLO check failed: %+v", rep.SLO)
	}
	if rep.QPS <= 0 || rep.P99Ms <= 0 || rep.P99Ms < rep.P50Ms {
		t.Fatalf("implausible latency report: qps=%v p50=%v p99=%v", rep.QPS, rep.P50Ms, rep.P99Ms)
	}
	if n := conns.Load(); n > int64(cfg.clients) {
		t.Fatalf("%d clients opened %d TCP connections", cfg.clients, n)
	}
	// The server samples every request, so the stage attribution must
	// cover the whole campaign.
	app, ok := rep.ServerTiming["app"]
	if !ok {
		t.Fatalf("no app entry in server-timing attribution: %v", rep.ServerTiming)
	}
	if app.Count != cfg.requests {
		t.Fatalf("app timing covered %d of %d requests", app.Count, cfg.requests)
	}
	if app.MeanMs < 0 || app.TotalMs < app.MeanMs && app.Count > 1 {
		t.Fatalf("implausible app timing: %+v", app)
	}
	if _, ok := rep.ServerTiming["decode"]; !ok {
		t.Fatalf("no decode stage in server-timing attribution: %v", rep.ServerTiming)
	}
}

// TestParseServerTiming pins the header subset respatd emits.
func TestParseServerTiming(t *testing.T) {
	got := parseServerTiming("app;dur=12.345, decode;dur=0.01, cache_lookup;dur=0")
	want := []stageTiming{{"app", 12.345}, {"decode", 0.01}, {"cache_lookup", 0}}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if parseServerTiming("") != nil {
		t.Fatal("empty header should parse to nil")
	}
	// Malformed entries are skipped, valid ones kept.
	got = parseServerTiming("bad, alsobad;x=1, ok;dur=2.5, neg;dur=-1")
	if len(got) != 1 || got[0] != (stageTiming{"ok", 2.5}) {
		t.Fatalf("malformed header parsed to %v", got)
	}
}

// TestSynthesizeDeterministic pins the workload to the seed: same
// seed, same request sequence; different seed, different key space.
func TestSynthesizeDeterministic(t *testing.T) {
	cfg := benchTestConfig()
	a, err := synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) != cfg.configs*len(cfg.endpoints) {
		t.Fatalf("synthesized %d and %d items, want %d", len(a), len(b), cfg.configs*len(cfg.endpoints))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("item %d differs across identical seeds", i)
		}
	}
	cfg.seed++
	c, err := synthesize(cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("seed does not influence the synthesized key space")
	}
}

// TestOpenLoop exercises the Poisson arrival path briefly: arrivals
// are either completed or dropped by the inflight cap, never lost.
func TestOpenLoop(t *testing.T) {
	cfg := benchTestConfig()
	cfg.mode = "open"
	cfg.rate = 4000
	cfg.duration = 150 * time.Millisecond
	cfg.clients = 4
	serve(t, &cfg)
	rep, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 {
		t.Fatal("open loop completed no requests")
	}
	var counted int64
	for _, n := range rep.Status {
		counted += n
	}
	if counted != rep.Requests {
		t.Fatalf("status counts sum to %d, requests %d", counted, rep.Requests)
	}
}

// TestZipfPicker sanity-checks the popularity curve: the hottest key
// dominates a uniform share.
func TestZipfPicker(t *testing.T) {
	pick, err := picker("zipf", 50, rng(7, 1))
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, 50)
	for i := 0; i < 20000; i++ {
		counts[pick()]++
	}
	if counts[0] <= 20000/50 {
		t.Fatalf("hottest key drew %d of 20000, no hotter than uniform", counts[0])
	}
	if _, err := picker("nope", 3, rng(1, 1)); err == nil {
		t.Fatal("unknown distribution accepted")
	}
}

// TestClientPoolNoLeak asserts the client pools and their connections
// wind down completely after both loop modes (run with -race in CI).
func TestClientPoolNoLeak(t *testing.T) {
	closed := benchTestConfig()
	serve(t, &closed)
	baseline := runtime.NumGoroutine()

	if _, err := run(closed); err != nil {
		t.Fatal(err)
	}
	open := closed
	open.mode = "open"
	open.rate = 2000
	open.duration = 100 * time.Millisecond
	if _, err := run(open); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutine leak: %d running, baseline %d", n, baseline)
	}
}
