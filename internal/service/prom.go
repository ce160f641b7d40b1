package service

import (
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"respat/internal/obs"
)

// buildVersion resolves the binary's module version once (the
// exposition is scraped continuously; ReadBuildInfo walks the whole
// build record).
var buildVersion = sync.OnceValue(func() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" {
		return bi.Main.Version
	}
	return "unknown"
})

// WritePrometheus renders every service counter and gauge, the
// per-endpoint and per-stage latency histograms, and the Go runtime
// gauges in the Prometheus text exposition format (version 0.0.4),
// hand-rolled via obs.PromWriter — no client library. Families are
// emitted in fixed code order and endpoints/stages in declaration
// order, so the output is stable enough to golden-test and always
// passes promlint.Lint. Served by GET /metrics?format=prometheus; the JSON
// snapshot remains the default format.
func (s *Service) WritePrometheus(w io.Writer) error {
	p := obs.NewPromWriter(w)
	m := &s.metrics

	// Build info first, the Prometheus convention for joinable metadata.
	p.Family("respat_build_info", "Build metadata; value is always 1.", "gauge")
	p.Sample("respat_build_info", []obs.Label{
		{Key: "version", Value: buildVersion()},
		{Key: "go", Value: runtime.Version()},
	}, 1)

	// Cache.
	p.Counter("respat_cache_hits_total", "Requests served from the plan cache.", float64(m.Hits.Load()))
	p.Counter("respat_cache_misses_total", "Requests that ran a cold computation.", float64(m.Misses.Load()))
	p.Counter("respat_cache_coalesced_total", "Requests coalesced onto an in-flight computation.", float64(m.Coalesced.Load()))
	p.Counter("respat_cache_evictions_total", "Cache entries displaced by inserts.", float64(m.Evictions.Load()))
	p.Gauge("respat_cache_entries", "Plans currently cached.", float64(s.cache.len()))

	// Admission / overload.
	p.Counter("respat_admitted_total", "Cold computations admitted through the gate.", float64(m.Admitted.Load()))
	p.Counter("respat_shed_total", "Cold computations shed by the full queue (HTTP 429).", float64(m.Shed.Load()))
	p.Counter("respat_degraded_total", "Requests answered by the first-order degraded plan.", float64(m.Degraded.Load()))
	p.Counter("respat_deadline_exceeded_total", "Requests that ran out of deadline budget (HTTP 503).", float64(m.DeadlineExceeded.Load()))
	p.Gauge("respat_cold_queue_depth", "Cold-plan computations waiting for a worker slot.", float64(s.gate.depth()))
	p.Gauge("respat_cold_queue_max", "High-water mark of the cold-plan wait queue.", float64(s.gate.maxDepth()))
	p.Gauge("respat_cold_plan_p90_seconds", "Observed cold-plan latency p90 feeding Retry-After.", s.gate.estimate())

	// Cluster.
	p.Counter("respat_forwarded_total", "Requests relayed to the key-owning peer.", float64(m.Forwarded.Load()))
	p.Counter("respat_forward_errors_total", "Peer relays that failed in transit (HTTP 502).", float64(m.ForwardErrors.Load()))
	p.Gauge("respat_peers_down", "Peers currently excluded from the ring by the health checker.", float64(s.peersDown()))

	// Sessions and in-flight work.
	p.Gauge("respat_in_flight", "HTTP requests currently being served.", float64(m.InFlight.Load()))
	p.Gauge("respat_adaptive_sessions", "Live adaptive re-planning sessions.", float64(s.SessionCount()))

	// Per-endpoint counters, the 4xx/5xx split, and latency histograms.
	// Iteration follows the endpointID declaration order, which is what
	// keeps the output byte-stable across scrapes.
	p.Family("respat_endpoint_requests_total", "Requests served, by endpoint.", "counter")
	for id := endpointID(0); id < epCount; id++ {
		p.Sample("respat_endpoint_requests_total",
			[]obs.Label{{Key: "endpoint", Value: id.String()}},
			float64(s.metrics.endpoints[id].requests.Load()))
	}
	p.Family("respat_endpoint_errors_total", "Error responses, by endpoint and class (4xx client, 5xx server).", "counter")
	for id := endpointID(0); id < epCount; id++ {
		e := &s.metrics.endpoints[id]
		p.Sample("respat_endpoint_errors_total",
			[]obs.Label{{Key: "endpoint", Value: id.String()}, {Key: "class", Value: "4xx"}},
			float64(e.errors4xx.Load()))
		p.Sample("respat_endpoint_errors_total",
			[]obs.Label{{Key: "endpoint", Value: id.String()}, {Key: "class", Value: "5xx"}},
			float64(e.errors5xx.Load()))
	}
	p.Family("respat_endpoint_latency_seconds", "Request latency, by endpoint (all requests).", "histogram")
	for id := endpointID(0); id < epCount; id++ {
		p.Hist("respat_endpoint_latency_seconds",
			[]obs.Label{{Key: "endpoint", Value: id.String()}},
			s.metrics.endpoints[id].hist.Snapshot())
	}

	// Tracing: sampler counters and per-stage histograms (sampled
	// requests only — stage durations are recorded by span completion).
	p.Counter("respat_traces_sampled_total", "Requests sampled into a trace.", float64(s.tracer.Sampled()))
	p.Counter("respat_traces_slow_total", "Sampled traces over the slow-request threshold.", float64(s.tracer.Slow()))
	if s.tracer != nil {
		p.Family("respat_stage_latency_seconds", "Stage latency over sampled requests, by stage.", "histogram")
		for st := obs.Stage(0); st < obs.StageCount; st++ {
			p.Hist("respat_stage_latency_seconds",
				[]obs.Label{{Key: "stage", Value: st.String()}},
				s.tracer.StageHistogram(st).Snapshot())
		}
	}

	// Go runtime.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.Gauge("respat_goroutines", "Live goroutines.", float64(runtime.NumGoroutine()))
	p.Gauge("respat_heap_alloc_bytes", "Bytes of allocated heap objects.", float64(ms.HeapAlloc))
	p.Counter("respat_gc_pause_seconds_total", "Cumulative GC stop-the-world pause time.", float64(ms.PauseTotalNs)/1e9)
	p.Counter("respat_gc_cycles_total", "Completed GC cycles.", float64(ms.NumGC))
	p.Gauge("respat_uptime_seconds", "Seconds since the service was constructed.", time.Since(s.started).Seconds())

	return p.Err()
}
