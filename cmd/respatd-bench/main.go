// Command respatd-bench is the SLO-validating load generator for
// respatd. It synthesizes a seeded key space of planning requests,
// drives the daemon at -url in closed-loop (fixed client concurrency,
// each client issuing the next request as soon as the last returns) or
// open-loop (Poisson arrivals at a target rate, an inflight cap
// standing in for client-side timeouts) mode, and reports sustained
// QPS, p50/p90/p99 latency and error rate against target SLOs as a
// machine-readable JSON document.
//
// Usage:
//
//	respatd-bench -url http://localhost:8080 -mode closed -clients 32 -requests 20000
//	respatd-bench -url http://localhost:8080 -mode open -rate 500 -duration 30s \
//	    -slo-p99 50ms -slo-error-rate 0.001 -slo-min-qps 400
//
// The exit status is 1 when any configured SLO is violated, so the
// command doubles as a CI gate: TestClosedLoopSLO runs a fixed-seed
// campaign against respatd's handler on a loopback socket.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"math/rand/v2"

	"respat/internal/core"
	"respat/internal/faults"
	"respat/internal/platform"
	"respat/internal/service"
	"respat/internal/stats"
)

func main() {
	var (
		url       = flag.String("url", "", "respatd base URL (e.g. http://localhost:8080)")
		mode      = flag.String("mode", "closed", "load mode: closed | open")
		clients   = flag.Int("clients", 16, "closed-loop client count / open-loop inflight cap")
		requests  = flag.Int64("requests", 10000, "closed-loop total request count")
		rate      = flag.Float64("rate", 200, "open-loop Poisson arrival rate (req/s)")
		duration  = flag.Duration("duration", 10*time.Second, "open-loop run length")
		configs   = flag.Int("configs", 64, "distinct planning configurations in the key space")
		endpoints = flag.String("endpoints", "plan,plan/exact", "comma-separated endpoint mix: plan, plan/exact, plan/multilevel")
		dist      = flag.String("dist", "uniform", "key popularity: uniform | zipf")
		seed      = flag.Uint64("seed", 1, "workload seed (same seed, same request sequence)")
		timeout   = flag.Duration("timeout", 30*time.Second, "per-request client timeout")
		sloP99    = flag.Duration("slo-p99", 0, "SLO: max p99 latency (0 = unchecked)")
		sloErr    = flag.Float64("slo-error-rate", -1, "SLO: max error rate in [0,1] (-1 = unchecked)")
		sloQPS    = flag.Float64("slo-min-qps", 0, "SLO: min sustained QPS (0 = unchecked)")
	)
	flag.Parse()
	cfg := benchConfig{
		target:    *url,
		mode:      *mode,
		clients:   *clients,
		requests:  *requests,
		rate:      *rate,
		duration:  *duration,
		configs:   *configs,
		endpoints: strings.Split(*endpoints, ","),
		dist:      *dist,
		seed:      *seed,
		timeout:   *timeout,
		sloP99:    *sloP99,
		sloErr:    *sloErr,
		sloQPS:    *sloQPS,
	}
	report, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "respatd-bench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.Encode(report)
	if report.SLO != nil && !report.SLO.Pass {
		fmt.Fprintln(os.Stderr, "respatd-bench: SLO violated")
		os.Exit(1)
	}
}

type benchConfig struct {
	target    string
	mode      string
	clients   int
	requests  int64
	rate      float64
	duration  time.Duration
	configs   int
	endpoints []string
	dist      string
	seed      uint64
	timeout   time.Duration
	sloP99    time.Duration
	sloErr    float64
	sloQPS    float64
}

// SLOReport echoes the configured targets and the verdict.
type SLOReport struct {
	P99Ms        float64 `json:"p99Ms,omitempty"`
	MaxErrorRate float64 `json:"maxErrorRate,omitempty"`
	MinQPS       float64 `json:"minQps,omitempty"`
	Pass         bool    `json:"pass"`
}

// StageReport aggregates one Server-Timing entry across the sampled
// responses that carried it: how many responses reported the stage and
// the total/mean server-side milliseconds spent in it. Comparing the
// "app" entry's mean against the client-observed mean attributes the
// gap to the network and the client stack.
type StageReport struct {
	Count   int64   `json:"count"`
	TotalMs float64 `json:"totalMs"`
	MeanMs  float64 `json:"meanMs"`
}

// Report is the JSON document written to stdout.
type Report struct {
	Mode       string           `json:"mode"`
	Seed       uint64           `json:"seed"`
	Requests   int64            `json:"requests"`
	Dropped    int64            `json:"dropped,omitempty"`
	Errors     int64            `json:"errors"`
	ErrorRate  float64          `json:"errorRate"`
	DurationMs float64          `json:"durationMs"`
	QPS        float64          `json:"qps"`
	P50Ms      float64          `json:"p50Ms"`
	P90Ms      float64          `json:"p90Ms"`
	P99Ms      float64          `json:"p99Ms"`
	Status     map[string]int64 `json:"status"`
	Outcomes   map[string]int64 `json:"outcomes,omitempty"`
	// ServerTiming breaks server-side time down by serving stage,
	// aggregated from the Server-Timing headers of sampled responses
	// (absent when the target's tracer sampled nothing).
	ServerTiming map[string]StageReport `json:"serverTiming,omitempty"`
	SLO          *SLOReport             `json:"slo,omitempty"`
}

// workItem is one request of the synthesized key space.
type workItem struct {
	path string
	body string
}

// rng derives a decorrelated PCG stream, the repo-wide seeding
// discipline (internal/faults.SplitSeed).
func rng(seed, stream uint64) *rand.Rand {
	s1, s2 := faults.SplitSeed(seed, stream)
	return rand.New(rand.NewPCG(s1, s2))
}

// synthesize builds the seeded key space: configs distinct
// configurations, each requested on every endpoint of the mix. Rates
// and disk costs are scattered geometrically (x0.5..x2) around the
// Table 2 platforms, so the space exercises the planner across its
// real operating range while staying valid.
func synthesize(cfg benchConfig) ([]workItem, error) {
	plats := platform.Table2()
	if len(plats) == 0 {
		return nil, fmt.Errorf("no built-in platforms")
	}
	for _, ep := range cfg.endpoints {
		switch ep {
		case "plan", "plan/exact", "plan/multilevel":
		default:
			return nil, fmt.Errorf("unknown endpoint %q (plan, plan/exact, plan/multilevel)", ep)
		}
	}
	if cfg.configs <= 0 {
		return nil, fmt.Errorf("configs = %d, need > 0", cfg.configs)
	}
	r := rng(cfg.seed, 0)
	kinds := []core.Kind{core.PD, core.PDV, core.PDMV}
	scatter := func(x float64) float64 { return x * math.Exp((r.Float64()*2-1)*math.Ln2) }
	items := make([]workItem, 0, cfg.configs*len(cfg.endpoints))
	for i := 0; i < cfg.configs; i++ {
		p := plats[i%len(plats)]
		costs, rates := p.Costs, p.Rates
		rates.FailStop = scatter(rates.FailStop)
		rates.Silent = scatter(rates.Silent)
		costs.DiskCkpt = scatter(costs.DiskCkpt)
		costs.DiskRec = scatter(costs.DiskRec)
		kind := kinds[i%len(kinds)]
		cb, err := json.Marshal(costs)
		if err != nil {
			return nil, err
		}
		rb, err := json.Marshal(rates)
		if err != nil {
			return nil, err
		}
		body := fmt.Sprintf(`{"kind":%q,"costs":%s,"rates":%s}`, kind, cb, rb)
		for _, ep := range cfg.endpoints {
			if ep == "plan/multilevel" {
				// The multilevel endpoint takes a hierarchy, not a flat
				// configuration; cycle the platform form instead.
				items = append(items, workItem{
					path: "/v1/plan/multilevel",
					body: fmt.Sprintf(`{"platform":%q,"levels":%d}`, p.Name, 2+i%2),
				})
				continue
			}
			items = append(items, workItem{path: "/v1/" + ep, body: body})
		}
	}
	return items, nil
}

// picker returns a seeded index sampler over n items: uniform, or a
// zipf(1.1) popularity curve (a few hot keys, a long cold tail — the
// cache-friendly shape real plan traffic has).
func picker(dist string, n int, r *rand.Rand) (func() int, error) {
	switch dist {
	case "uniform":
		return func() int { return r.IntN(n) }, nil
	case "zipf":
		cdf := make([]float64, n)
		sum := 0.0
		for i := 0; i < n; i++ {
			sum += 1 / math.Pow(float64(i+1), 1.1)
			cdf[i] = sum
		}
		for i := range cdf {
			cdf[i] /= sum
		}
		return func() int {
			return sort.SearchFloat64s(cdf, r.Float64())
		}, nil
	default:
		return nil, fmt.Errorf("unknown distribution %q (uniform, zipf)", dist)
	}
}

// collector accumulates per-request observations. One mutex is fine:
// the critical section is tens of nanoseconds against requests that
// take microseconds at best.
type collector struct {
	mu       sync.Mutex
	lat      []float64 // milliseconds
	status   map[string]int64
	outcomes map[string]int64
	stages   map[string]*StageReport // Server-Timing entry name -> aggregate
	errors   int64
	requests int64
}

func newCollector() *collector {
	return &collector{
		status:   make(map[string]int64),
		outcomes: make(map[string]int64),
		stages:   make(map[string]*StageReport),
	}
}

func (c *collector) record(status int, outcome, serverTiming string, latency time.Duration, transportErr bool) {
	entries := parseServerTiming(serverTiming) // parse outside the lock
	c.mu.Lock()
	defer c.mu.Unlock()
	c.requests++
	c.lat = append(c.lat, float64(latency.Nanoseconds())/1e6)
	for _, e := range entries {
		agg := c.stages[e.name]
		if agg == nil {
			agg = &StageReport{}
			c.stages[e.name] = agg
		}
		agg.Count++
		agg.TotalMs += e.durMs
	}
	if transportErr {
		c.status["transport-error"]++
		c.errors++
		return
	}
	c.status[fmt.Sprintf("%d", status)]++
	if status >= 400 {
		c.errors++
	}
	if outcome != "" {
		c.outcomes[outcome]++
	}
}

// stageTiming is one parsed Server-Timing entry.
type stageTiming struct {
	name  string
	durMs float64
}

// parseServerTiming decodes the Server-Timing header respatd emits on
// sampled responses: comma-separated `name;dur=<ms>` entries (the
// subset of RFC 9112 Server-Timing the daemon produces). Entries
// without a parseable dur are skipped; an empty header (the unsampled
// common case) returns nil without allocating.
func parseServerTiming(h string) []stageTiming {
	if h == "" {
		return nil
	}
	var out []stageTiming
	for _, entry := range strings.Split(h, ",") {
		name, params, ok := strings.Cut(strings.TrimSpace(entry), ";")
		if !ok || name == "" {
			continue
		}
		for _, p := range strings.Split(params, ";") {
			k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
			if !ok || k != "dur" {
				continue
			}
			var ms float64
			if _, err := fmt.Sscanf(v, "%g", &ms); err == nil && ms >= 0 {
				out = append(out, stageTiming{name: name, durMs: ms})
			}
			break
		}
	}
	return out
}

// run executes one load-generation campaign and builds the report.
func run(cfg benchConfig) (Report, error) {
	if cfg.target == "" {
		return Report{}, fmt.Errorf("need -url")
	}
	target := strings.TrimSuffix(cfg.target, "/")
	if cfg.clients <= 0 {
		return Report{}, fmt.Errorf("clients = %d, need > 0", cfg.clients)
	}
	// One connection per client, kept idle between its requests, so
	// the campaign times requests rather than TCP handshakes
	// (http.DefaultTransport keeps 2 idle connections per host). At
	// most cfg.clients requests are in flight at once, so the cap
	// holds the pool at one connection per client. The connections
	// close before run returns.
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConns = cfg.clients
	transport.MaxIdleConnsPerHost = cfg.clients
	transport.MaxConnsPerHost = cfg.clients
	defer transport.CloseIdleConnections()
	client := &http.Client{Timeout: cfg.timeout, Transport: transport}
	items, err := synthesize(cfg)
	if err != nil {
		return Report{}, err
	}

	coll := newCollector()
	var elapsed time.Duration
	var dropped int64
	switch cfg.mode {
	case "closed":
		elapsed, err = runClosed(cfg, items, client, target, coll)
	case "open":
		elapsed, dropped, err = runOpen(cfg, items, client, target, coll)
	default:
		err = fmt.Errorf("unknown mode %q (closed, open)", cfg.mode)
	}
	if err != nil {
		return Report{}, err
	}

	rep := Report{
		Mode:       cfg.mode,
		Seed:       cfg.seed,
		Requests:   coll.requests,
		Dropped:    dropped,
		Errors:     coll.errors,
		DurationMs: float64(elapsed.Nanoseconds()) / 1e6,
		Status:     coll.status,
		Outcomes:   coll.outcomes,
	}
	if attempted := coll.requests + dropped; attempted > 0 {
		rep.ErrorRate = float64(coll.errors+dropped) / float64(attempted)
	}
	if elapsed > 0 {
		rep.QPS = float64(coll.requests) / elapsed.Seconds()
	}
	if len(coll.lat) > 0 {
		qs, err := stats.Quantiles(coll.lat, 0.50, 0.90, 0.99)
		if err != nil {
			return Report{}, err
		}
		rep.P50Ms, rep.P90Ms, rep.P99Ms = qs[0], qs[1], qs[2]
	}
	if len(coll.stages) > 0 {
		rep.ServerTiming = make(map[string]StageReport, len(coll.stages))
		for name, agg := range coll.stages {
			agg.MeanMs = agg.TotalMs / float64(agg.Count)
			rep.ServerTiming[name] = *agg
		}
	}
	if cfg.sloP99 > 0 || cfg.sloErr >= 0 || cfg.sloQPS > 0 {
		slo := &SLOReport{
			P99Ms:        float64(cfg.sloP99.Nanoseconds()) / 1e6,
			MaxErrorRate: cfg.sloErr,
			MinQPS:       cfg.sloQPS,
			Pass:         true,
		}
		if cfg.sloP99 > 0 && rep.P99Ms > slo.P99Ms {
			slo.Pass = false
		}
		if cfg.sloErr >= 0 && rep.ErrorRate > cfg.sloErr {
			slo.Pass = false
		}
		if cfg.sloQPS > 0 && rep.QPS < cfg.sloQPS {
			slo.Pass = false
		}
		rep.SLO = slo
	}
	return rep, nil
}

// send issues one request and records it.
func send(client *http.Client, target string, it workItem, coll *collector) {
	start := time.Now()
	resp, err := client.Post(target+it.path, "application/json", strings.NewReader(it.body))
	if err != nil {
		coll.record(0, "", "", time.Since(start), true)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	coll.record(resp.StatusCode, resp.Header.Get(service.OutcomeHeader),
		resp.Header.Get("Server-Timing"), time.Since(start), false)
}

// runClosed drives the closed loop: cfg.clients workers pull request
// numbers from a shared counter until cfg.requests are done, each
// issuing its next request the moment the previous one returns. The
// measured QPS is the service's sustained throughput at that
// concurrency.
func runClosed(cfg benchConfig, items []workItem, client *http.Client, target string, coll *collector) (time.Duration, error) {
	if cfg.requests <= 0 {
		return 0, fmt.Errorf("requests = %d, need > 0", cfg.requests)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.clients; w++ {
		r := rng(cfg.seed, uint64(w)+1)
		pick, err := picker(cfg.dist, len(items), r)
		if err != nil {
			return 0, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= cfg.requests {
				send(client, target, items[pick()], coll)
			}
		}()
	}
	wg.Wait()
	return time.Since(start), nil
}

// runOpen drives the open loop: Poisson arrivals at cfg.rate for
// cfg.duration, each dispatched on its own goroutine. The inflight cap
// (cfg.clients) models client-side impatience: an arrival finding the
// cap exhausted is dropped and counted against the error-rate SLO,
// which is exactly how an overloaded service looks from outside.
func runOpen(cfg benchConfig, items []workItem, client *http.Client, target string, coll *collector) (time.Duration, int64, error) {
	if cfg.rate <= 0 || cfg.duration <= 0 {
		return 0, 0, fmt.Errorf("open loop needs -rate > 0 and -duration > 0")
	}
	arrivals := rng(cfg.seed, 0xA881)
	pick, err := picker(cfg.dist, len(items), rng(cfg.seed, 0xB77))
	if err != nil {
		return 0, 0, err
	}
	sem := make(chan struct{}, cfg.clients)
	var wg sync.WaitGroup
	var dropped int64
	start := time.Now()
	deadline := start.Add(cfg.duration)
	t := 0.0
	for {
		t += arrivals.ExpFloat64() / cfg.rate
		at := start.Add(time.Duration(t * float64(time.Second)))
		if at.After(deadline) {
			break
		}
		time.Sleep(time.Until(at))
		it := items[pick()]
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				send(client, target, it, coll)
			}()
		default:
			dropped++
		}
	}
	wg.Wait()
	return time.Since(start), dropped, nil
}
