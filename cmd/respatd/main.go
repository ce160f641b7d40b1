// Command respatd serves resilience-pattern planning over HTTP: the
// Table 1 first-order planner, the exact-model planner, the multilevel
// hierarchy planner and the exact expected-time evaluator, behind a
// sharded SIEVE plan cache with request coalescing (see internal/service
// and DESIGN.md §2.4).
//
// Usage:
//
//	respatd -addr :8080
//	respatd -addr :8080 -shards 32 -cache-capacity 65536 -batch-workers 8
//	respatd -addr :8080 -cold-workers 8 -cold-queue 32 -request-timeout 30s -degraded
//	respatd -addr :8080 -self a -peers a=http://a:8080,b=http://b:8080,c=http://c:8080
//
// Endpoints (full reference with schemas: docs/api.md):
//
//	POST   /v1/plan            {"kind":"PDMV","platform":"Hera"}
//	POST   /v1/plan/exact      same body; exact renewal-equation optimum
//	POST   /v1/plan/multilevel {"platform":"Hera","levels":3} or {"params":{...}}
//	POST   /v1/evaluate        {"pattern":{...},"platform":"Hera"}
//	POST   /v1/batch           {"requests":[{"op":"plan",...},...]}
//	POST   /v1/observe         {"session":"s1","kind":"PDMV","platform":"Hera",
//	                            "failstop":{"events":2,"exposure":86400}, ...}
//	GET    /v1/adaptive        ?session=s1 — fitted rates, counters, current plan
//	DELETE /v1/adaptive        ?session=s1 — drop the session
//	GET    /healthz            liveness
//	GET    /metrics            cache counters + per-endpoint latency quantiles (JSON)
//
// Parallelism flags follow the repo-wide convention (see DESIGN.md
// §2.3): -batch-workers bounds fan-out across independent work items
// (like -campaign-workers in cmd/experiments and cmd/respat) and
// defaults to GOMAXPROCS. Overload behaviour (docs/api.md "Overload
// semantics"): cold exact/multilevel searches run behind a bounded
// -cold-workers pool with a bounded -cold-queue wait queue (full queue
// sheds 429 + Retry-After); every request gets a -request-timeout
// deadline budget overridable per request via X-Request-Timeout
// (exceeded: 503); -degraded serves the first-order plan instead of
// failing shed or too-tight requests. Shutdown is graceful:
// SIGINT/SIGTERM stops accepting connections and drains in-flight
// requests for up to -drain-timeout.
//
// Distributed serving (DESIGN.md §2.9): -self plus -peers joins the
// daemon to a consistent-hash replica group — each cacheable plan key
// is owned by one replica, peer-owned requests forward one hop, and a
// background health checker (-health-interval) drops dead peers from
// the ring deterministically. Every replica places the same virtual
// nodes, so replicas that agree on the live member set agree on every
// key's owner.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"respat/internal/obs"
	"respat/internal/service"
)

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		os.Exit(2) // flag.CommandLine has already reported the error
	}
	if err := run(o.addr, o.debugAddr, o.cfg, o.cluster, o.drainTimeout, o.quiet); err != nil {
		fmt.Fprintln(os.Stderr, "respatd:", err)
		os.Exit(1)
	}
}

// options is respatd's parsed command line.
type options struct {
	addr, debugAddr string
	cfg             service.Config
	cluster         clusterFlags
	drainTimeout    time.Duration
	quiet           bool
}

// parseFlags defines respatd's flags on fs and parses args into
// options.
func parseFlags(fs *flag.FlagSet, args []string) (options, error) {
	var o options
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.cfg.Shards, "shards", 16, "plan-cache shards (rounded up to a power of two)")
	fs.IntVar(&o.cfg.Capacity, "cache-capacity", 4096, "total cached plans across all shards")
	fs.IntVar(&o.cfg.BatchWorkers, "batch-workers", runtime.GOMAXPROCS(0), "concurrent items per /v1/batch request (0 = GOMAXPROCS)")
	fs.IntVar(&o.cfg.MaxSessions, "max-sessions", 1024, "cap on live adaptive sessions (/v1/observe)")
	fs.IntVar(&o.cfg.ColdWorkers, "cold-workers", runtime.GOMAXPROCS(0), "concurrent cold plans: exact + multilevel searches (0 = GOMAXPROCS)")
	fs.IntVar(&o.cfg.ColdQueue, "cold-queue", 0, "cold plans allowed to wait for a worker before shedding with 429 (0 = 4x cold-workers)")
	fs.DurationVar(&o.cfg.DefaultTimeout, "request-timeout", time.Minute, "default per-request deadline budget; X-Request-Timeout overrides (0 = unbounded)")
	fs.BoolVar(&o.cfg.Degraded, "degraded", false, "serve the first-order plan (flagged degraded) instead of failing shed or too-tight exact requests")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 10*time.Second, "graceful-shutdown drain window")
	fs.BoolVar(&o.quiet, "quiet", false, "disable per-request logging")

	fs.StringVar(&o.cluster.self, "self", "", "this replica's name in -peers (empty = standalone)")
	fs.StringVar(&o.cluster.peers, "peers", "", "replica set as name=url,name=url,... (must include -self)")
	fs.DurationVar(&o.cluster.healthInterval, "health-interval", 5*time.Second, "peer health-check period (0 = no background checks)")

	var trace obs.Config
	fs.IntVar(&trace.SampleEvery, "trace-sample", 64, "sample 1 in N requests into a trace (1 = all, 0 = only forwarded trace IDs)")
	fs.IntVar(&trace.Ring, "trace-ring", 256, "completed traces retained for /debug/traces")
	fs.DurationVar(&trace.SlowThreshold, "trace-slow", 0, "log sampled traces slower than this (0 = no slow log)")
	fs.Uint64Var(&trace.Seed, "trace-seed", 1, "trace-sampling seed (deterministic across runs)")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "separate listener for /debug/pprof and /debug/traces (empty = no debug listener)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	// The tracer is always constructed: -trace-sample 0 disables the
	// sampler but forwarded trace IDs are still honoured, so a cluster
	// trace never loses a hop to one replica's configuration.
	trace.Log = log.New(os.Stderr, "respatd: ", log.LstdFlags)
	o.cfg.Tracer = obs.New(trace)
	return o, nil
}

// clusterFlags bundles the replica-group flags.
type clusterFlags struct {
	self           string
	peers          string
	healthInterval time.Duration
}

// parsePeers turns "a=http://a:8080,b=http://b:8080" into members.
func parsePeers(s string) ([]service.Member, error) {
	var members []service.Member
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, url, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad -peers entry %q, want name=url", part)
		}
		members = append(members, service.Member{
			Name: strings.TrimSpace(name),
			URL:  strings.TrimSuffix(strings.TrimSpace(url), "/"),
		})
	}
	if len(members) == 0 {
		return nil, errors.New("-peers is empty")
	}
	return members, nil
}

func run(addr, debugAddr string, cfg service.Config, cluster clusterFlags, drainTimeout time.Duration, quiet bool) error {
	logger := log.New(os.Stderr, "respatd: ", log.LstdFlags)
	ln, svc, stop, err := start(addr, debugAddr, cfg, cluster, logger)
	if err != nil {
		return err
	}
	defer stop()
	return serve(ln, svc, logger, drainTimeout, quiet)
}

// start builds the service, joins it to its replica group, opens the
// debug and API listeners and logs the service's effective
// configuration. stop ends the peer health checks and closes the debug
// listener; a failing start has already undone what it began.
func start(addr, debugAddr string, cfg service.Config, cluster clusterFlags, logger *log.Logger) (ln net.Listener, svc *service.Service, stop func(), err error) {
	if (cluster.self == "") != (cluster.peers == "") {
		return nil, nil, nil, errors.New("-self and -peers must be given together")
	}
	svc = service.New(cfg)
	var stops []func()
	stopAll := func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	defer func() {
		if err != nil {
			stopAll()
		}
	}()
	if cluster.self != "" {
		members, err := parsePeers(cluster.peers)
		if err != nil {
			return nil, nil, nil, err
		}
		if err := svc.EnableCluster(service.ClusterConfig{
			Self:    cluster.self,
			Members: members,
		}); err != nil {
			return nil, nil, nil, err
		}
		if cluster.healthInterval > 0 {
			hctx, stopHealth := context.WithCancel(context.Background())
			stops = append(stops, stopHealth)
			go func() {
				tick := time.NewTicker(cluster.healthInterval)
				defer tick.Stop()
				for {
					select {
					case <-hctx.Done():
						return
					case <-tick.C:
						svc.CheckPeerHealth(hctx)
					}
				}
			}()
		}
		logger.Printf("cluster: self=%s members=%d health-interval=%v",
			cluster.self, len(members), cluster.healthInterval)
	}
	if debugAddr != "" {
		stopDebug, err := serveDebug(debugAddr, svc, logger)
		if err != nil {
			return nil, nil, nil, err
		}
		stops = append(stops, stopDebug)
	}
	ln, err = net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, nil, err
	}
	logger.Printf("listening on %s (%s)", ln.Addr(), describeConfig(svc.Config()))
	return ln, svc, stopAll, nil
}

// describeConfig renders a service configuration for the startup log
// line. start passes the service's effective configuration, so a flag
// left at 0 ("use the default") shows the value the service runs with.
func describeConfig(cfg service.Config) string {
	return fmt.Sprintf("shards=%d capacity=%d batch-workers=%d max-sessions=%d cold-workers=%d cold-queue=%d request-timeout=%v degraded=%v",
		cfg.Shards, cfg.Capacity, cfg.BatchWorkers, cfg.MaxSessions, cfg.ColdWorkers, cfg.ColdQueue, cfg.DefaultTimeout, cfg.Degraded)
}

// serveDebug starts the profiling/debug listener: net/http/pprof under
// /debug/pprof plus the trace ring at /debug/traces, on its own
// address so the profiling surface never shares a port (or an
// operator's firewall rules) with the public API. Returns a closer.
func serveDebug(addr string, svc *service.Service, logger *log.Logger) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-debug-addr %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("GET /debug/traces", svc.DebugTraces)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			logger.Printf("debug listener: %v", err)
		}
	}()
	logger.Printf("debug listener on %s (/debug/pprof, /debug/traces)", ln.Addr())
	return func() { srv.Close() }, nil
}

// serve runs the HTTP server on ln until SIGINT/SIGTERM, then drains
// in-flight requests for up to drainTimeout. Split from run so tests
// can inject a listener on an ephemeral port.
func serve(ln net.Listener, svc *service.Service, logger *log.Logger, drainTimeout time.Duration, quiet bool) error {
	var handler http.Handler = svc.Handler()
	if !quiet {
		handler = requestLog(logger, handler)
	}
	// The read and idle timeouts bound what a slow or stalled client can
	// hold: without them an overload test that sheds in microseconds can
	// still be pinned down by connections that never finish sending.
	srv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	logger.Printf("shutting down (draining up to %v)", drainTimeout)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Printf("drained; bye")
	return nil
}

// statusWriter captures the response status for the request log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// requestLog logs one line per request: method, path, status, duration,
// plus the overload disposition (outcome=shed|degraded|deadline-exceeded)
// and the trace ID (trace=...) when the service labelled them — the
// trace ID joins a log line to /debug/traces and to the error body the
// client saw.
func requestLog(logger *log.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		var extra string
		if out := sw.Header().Get(service.OutcomeHeader); out != "" {
			extra += " outcome=" + out
		}
		if id := sw.Header().Get(obs.TraceHeader); id != "" {
			extra += " trace=" + id
		}
		logger.Printf("%s %s %d %v%s", r.Method, r.URL.Path, sw.status, time.Since(start).Round(time.Microsecond), extra)
	})
}
