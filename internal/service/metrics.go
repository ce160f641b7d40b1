package service

import (
	"sync/atomic"
	"time"

	"respat/internal/obs"
)

// Metrics aggregates the service counters surfaced by GET /metrics.
// Counters and latency histograms are atomics, so the request hot path
// never takes a lock.
type Metrics struct {
	// Cache outcome counters. A request for a cacheable operation
	// increments exactly one of the three: Hits (served from the cache),
	// Misses (this request ran the computation) or Coalesced (attached
	// to another request's in-flight computation). Computations
	// performed therefore equal Misses.
	Hits      atomic.Int64
	Misses    atomic.Int64
	Coalesced atomic.Int64
	// Evictions counts cache entries displaced by inserts into full
	// shards.
	Evictions atomic.Int64
	// InFlight is the number of HTTP requests currently being served.
	InFlight atomic.Int64

	// Overload counters (see admission.go and DESIGN.md §2.8). A cold
	// computation increments exactly one of Admitted or Shed; Degraded
	// counts requests answered by the first-order fallback; and
	// DeadlineExceeded counts requests that ran out of budget (503).
	Admitted         atomic.Int64
	Shed             atomic.Int64
	Degraded         atomic.Int64
	DeadlineExceeded atomic.Int64

	// Distributed-serving counters (see cluster.go and DESIGN.md §2.9).
	// Forwarded counts requests relayed to the owning peer;
	// ForwardErrors counts relays that failed in transit (502 to the
	// client).
	Forwarded     atomic.Int64
	ForwardErrors atomic.Int64

	endpoints [epCount]endpointMetrics // indexed by endpointID
}

// endpointID indexes the per-endpoint metrics.
type endpointID int

// Every routed (method, path) pair gets its own id, so the /metrics
// latency quantiles are per endpoint — /v1/plan/multilevel and
// /v1/plan/exact report separate histograms, and the adaptive GET and
// DELETE (different cost profiles) are not pooled either.
const (
	epPlan endpointID = iota
	epPlanExact
	epPlanMultilevel
	epEvaluate
	epBatch
	epObserve
	epAdaptive
	epAdaptiveDelete

	epCount // sentinel: sizes the endpoints array
)

func (e endpointID) String() string {
	switch e {
	case epPlan:
		return "plan"
	case epPlanExact:
		return "plan_exact"
	case epPlanMultilevel:
		return "plan_multilevel"
	case epEvaluate:
		return "evaluate"
	case epBatch:
		return "batch"
	case epObserve:
		return "observe"
	case epAdaptive:
		return "adaptive"
	case epAdaptiveDelete:
		return "adaptive_delete"
	default:
		return "unknown"
	}
}

// endpointMetrics tracks one endpoint's request count, error counts
// (client 4xx and server 5xx separately — a spike of bad requests and
// a spike of overload look identical when pooled), and the latency
// histogram that both the Prometheus exposition and the JSON quantiles
// read.
type endpointMetrics struct {
	requests  atomic.Int64
	errors4xx atomic.Int64
	errors5xx atomic.Int64

	hist obs.Histogram
}

// observe records one request outcome with its latency and final HTTP
// status.
func (m *Metrics) observe(ep endpointID, latency time.Duration, status int) {
	e := &m.endpoints[ep]
	e.requests.Add(1)
	switch {
	case status >= 500:
		e.errors5xx.Add(1)
	case status >= 400:
		e.errors4xx.Add(1)
	}
	e.hist.Observe(int64(latency))
}

// LatencyQuantiles summarises an endpoint's latencies since start:
// Count is every request, and the quantiles, in nanoseconds, are
// obs.HistSnapshot.Quantile over the endpoint's histogram — what
// histogram_quantile returns on the Prometheus view.
type LatencyQuantiles struct {
	Count int64   `json:"count"`
	P50   float64 `json:"p50_ns"`
	P90   float64 `json:"p90_ns"`
	P99   float64 `json:"p99_ns"`
}

// EndpointSnapshot is one endpoint's row in the metrics report.
// Errors remains the total for report stability; ClientErrors (4xx)
// and ServerErrors (5xx) split it by responsibility.
type EndpointSnapshot struct {
	Requests     int64            `json:"requests"`
	Errors       int64            `json:"errors"`
	ClientErrors int64            `json:"clientErrors"`
	ServerErrors int64            `json:"serverErrors"`
	Latency      LatencyQuantiles `json:"latency"`
}

// Snapshot is the JSON document served by GET /metrics.
type Snapshot struct {
	CacheHits        int64 `json:"cacheHits"`
	CacheMisses      int64 `json:"cacheMisses"`
	Coalesced        int64 `json:"coalesced"`
	Evictions        int64 `json:"evictions"`
	CacheEntries     int   `json:"cacheEntries"`
	InFlight         int64 `json:"inFlight"`
	AdaptiveSessions int   `json:"adaptiveSessions"`

	// Overload observability (admission gate + degradation).
	Admitted         int64 `json:"admitted"`
	Shed             int64 `json:"shed"`
	Degraded         int64 `json:"degraded"`
	DeadlineExceeded int64 `json:"deadlineExceeded"`
	// ColdQueueDepth is the current cold-plan wait-queue depth;
	// ColdQueueMax its high-water mark since start. ColdPlanP90Ns is
	// the p90 of recent cold-plan wall times feeding Retry-After and
	// the too-tight check (gate.estimate).
	ColdQueueDepth int64   `json:"coldQueueDepth"`
	ColdQueueMax   int64   `json:"coldQueueMax"`
	ColdPlanP90Ns  float64 `json:"coldPlanP90Ns"`

	// Distributed serving (cluster.go): peer forwards, failed
	// forwards, and peers currently excluded from the ring by the
	// health checker.
	Forwarded     int64 `json:"forwarded"`
	ForwardErrors int64 `json:"forwardErrors"`
	PeersDown     int   `json:"peersDown"`

	Endpoints map[string]EndpointSnapshot `json:"endpoints"`
}

// snapshot captures the current counters. cacheEntries, sessions and
// the gate are supplied by the service (it owns the cache, the session
// table and the admission gate).
func (m *Metrics) snapshot(cacheEntries, sessions int, g *gate, peersDown int) Snapshot {
	out := Snapshot{
		CacheHits:        m.Hits.Load(),
		CacheMisses:      m.Misses.Load(),
		Coalesced:        m.Coalesced.Load(),
		Evictions:        m.Evictions.Load(),
		CacheEntries:     cacheEntries,
		AdaptiveSessions: sessions,
		InFlight:         m.InFlight.Load(),
		Admitted:         m.Admitted.Load(),
		Shed:             m.Shed.Load(),
		Degraded:         m.Degraded.Load(),
		DeadlineExceeded: m.DeadlineExceeded.Load(),
		ColdQueueDepth:   g.depth(),
		ColdQueueMax:     g.maxDepth(),
		ColdPlanP90Ns:    g.estimate() * 1e9,
		Forwarded:        m.Forwarded.Load(),
		ForwardErrors:    m.ForwardErrors.Load(),
		PeersDown:        peersDown,
		Endpoints:        make(map[string]EndpointSnapshot, len(m.endpoints)),
	}
	for id := range m.endpoints {
		e := &m.endpoints[id]
		c4, c5 := e.errors4xx.Load(), e.errors5xx.Load()
		h := e.hist.Snapshot()
		out.Endpoints[endpointID(id).String()] = EndpointSnapshot{
			Requests:     e.requests.Load(),
			Errors:       c4 + c5,
			ClientErrors: c4,
			ServerErrors: c5,
			Latency: LatencyQuantiles{
				Count: h.Count,
				P50:   h.Quantile(0.50),
				P90:   h.Quantile(0.90),
				P99:   h.Quantile(0.99),
			},
		}
	}
	return out
}
