// Package obs is respatd's zero-dependency observability substrate:
// per-request tracing with named stages, a seeded 1-in-N sampler, a
// fixed ring of recent traces (served as JSON at /debug/traces), a
// slow-request log, fixed-bucket latency histograms, a hand-rolled
// Prometheus text-exposition writer and a promtool-style lint of that
// output. It depends on nothing outside the standard library and owns
// no HTTP routes — internal/service and cmd/respatd wire it in.
//
// Hot-path contract (DESIGN.md §2.10): every entry point is safe on a
// nil *Tracer and a nil *Trace, and the unsampled path allocates
// nothing — one atomic add for the sampling decision, then nil-guarded
// no-ops. Only sampled requests pay for span recording, and only they
// appear in /debug/traces, the per-stage histograms, Server-Timing
// headers and the slow-request log.
package obs

import (
	"log"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader carries a trace ID between replicas (requests) and back
// to clients (responses). A forwarded request's header forces the peer
// to record its half of the trace under the same ID, which is what
// stitches one logical request across a cluster.
const TraceHeader = "X-Respat-Trace"

// Stage names one timed segment of a request. The set is closed: every
// stage gets its own latency histogram, and the Prometheus exposition
// iterates them in declaration order for stable output.
type Stage uint8

const (
	// StageDecode is request-body reading and JSON decoding.
	StageDecode Stage = iota
	// StageCacheLookup is one probe of the sharded plan cache.
	StageCacheLookup
	// StageGateWait is time spent acquiring a cold-plan worker slot.
	StageGateWait
	// StageColdCompute is the planner computation itself.
	StageColdCompute
	// StagePeerForward is one hop to the key-owning replica.
	StagePeerForward
	// StageEncode is response serialisation and writing.
	StageEncode

	// StageCount sizes per-stage arrays; not a stage.
	StageCount
)

var stageNames = [StageCount]string{
	"decode", "cache_lookup", "gate_wait", "cold_compute",
	"peer_forward", "encode",
}

func (s Stage) String() string {
	if s < StageCount {
		return stageNames[s]
	}
	return "unknown"
}

// Span is one completed stage of a trace. Start is the offset from the
// trace's start, so spans order and nest without absolute clocks.
type Span struct {
	Stage   string `json:"stage"`
	StartNS int64  `json:"startNs"`
	DurNS   int64  `json:"durNs"`
	// Outcome labels how the stage ended: "hit"/"miss" for lookups,
	// "admitted"/"shed"/"cancelled" for the gate, "ok"/"error"/
	// "degraded" for computations. Empty when the stage has only one
	// way to end.
	Outcome string `json:"outcome,omitempty"`
	// Peer is the replica a peer_forward span relayed to.
	Peer string `json:"peer,omitempty"`
	// Remote is the peer's Server-Timing summary for a peer_forward
	// span: the remote half of the stitched trace, captured verbatim.
	Remote string `json:"remote,omitempty"`
}

// Record is one completed trace as served by /debug/traces.
type Record struct {
	ID       string    `json:"id"`
	Endpoint string    `json:"endpoint"`
	Start    time.Time `json:"start"`
	// ForwardedFrom names the replica that forwarded this request here;
	// empty on requests that entered the cluster at this replica.
	ForwardedFrom string `json:"forwardedFrom,omitempty"`
	Status        int    `json:"status,omitempty"`
	// Outcome is the request's overload disposition ("shed",
	// "degraded", "deadline-exceeded"); empty on ordinary requests.
	Outcome string `json:"outcome,omitempty"`
	TotalNS int64  `json:"totalNs"`
	Slow    bool   `json:"slow,omitempty"`
	Spans   []Span `json:"spans"`
}

// Config sizes a Tracer. The zero value disables sampling but still
// honours forced (forwarded) trace IDs.
type Config struct {
	// SampleEvery samples roughly 1 in N requests through a seeded
	// splitmix64 draw (1 = every request, 0 = none). Forwarded
	// requests carrying TraceHeader are always sampled, so a stitched
	// trace never loses its remote half to the peer's sampler.
	SampleEvery int
	// Ring is how many completed traces /debug/traces retains
	// (default 256).
	Ring int
	// SlowThreshold logs a sampled trace whose total latency exceeds
	// it (0 = no slow log).
	SlowThreshold time.Duration
	// Seed keys the sampling draw; two tracers with equal Seed and
	// request sequence sample identically (default 1).
	Seed uint64
	// MaxSpans caps spans recorded per trace (default 32); later
	// spans are dropped and counted in the trace's drop counter.
	MaxSpans int
	// Log receives slow-request lines (nil = log.Default()).
	Log *log.Logger
}

// Tracer makes sampling decisions, owns the ring of recent traces and
// aggregates per-stage latency histograms. All methods are safe for
// concurrent use and safe on a nil receiver (a nil Tracer never
// samples).
type Tracer struct {
	sampleEvery uint64
	seed        uint64
	maxSpans    int
	slowNS      int64
	log         *log.Logger

	counter atomic.Uint64 // requests seen (the sampling sequence)
	sampled atomic.Int64  // traces started
	slow    atomic.Int64  // traces logged as slow

	stages [StageCount]Histogram

	mu     sync.Mutex
	ring   []Record
	next   int
	filled int
}

// New builds a Tracer.
func New(cfg Config) *Tracer {
	if cfg.Ring <= 0 {
		cfg.Ring = 256
	}
	if cfg.MaxSpans <= 0 {
		cfg.MaxSpans = 32
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Log == nil {
		cfg.Log = log.Default()
	}
	return &Tracer{
		sampleEvery: uint64(max(cfg.SampleEvery, 0)),
		seed:        cfg.Seed,
		maxSpans:    cfg.MaxSpans,
		slowNS:      cfg.SlowThreshold.Nanoseconds(),
		log:         cfg.Log,
		ring:        make([]Record, cfg.Ring),
	}
}

// Start makes the sampling decision for one request and returns its
// trace, or nil when the request is unsampled. forcedID, when it is a
// well-formed trace ID (the TraceHeader of a forwarded request),
// bypasses the sampler so the remote half of a stitched trace is
// always recorded; forwardedFrom names the forwarding replica. The
// unsampled path costs one atomic add and allocates nothing.
func (t *Tracer) Start(endpoint, forcedID, forwardedFrom string) *Trace {
	if t == nil {
		return nil
	}
	n := t.counter.Add(1)
	id := forcedID
	if !validTraceID(id) {
		if t.sampleEvery == 0 || splitmix64(t.seed+n)%t.sampleEvery != 0 {
			return nil
		}
		id = formatTraceID(splitmix64(t.seed ^ (n * 0x9e3779b97f4a7c15)))
		forwardedFrom = ""
	}
	t.sampled.Add(1)
	return &Trace{
		tracer:        t,
		id:            id,
		endpoint:      endpoint,
		forwardedFrom: forwardedFrom,
		start:         time.Now(),
		spans:         make([]Span, 0, t.maxSpans),
	}
}

// Sampled returns how many traces this tracer has started.
func (t *Tracer) Sampled() int64 {
	if t == nil {
		return 0
	}
	return t.sampled.Load()
}

// Slow returns how many traces exceeded the slow threshold.
func (t *Tracer) Slow() int64 {
	if t == nil {
		return 0
	}
	return t.slow.Load()
}

// StageHistogram returns the latency histogram of one stage, fed by
// every completed span of sampled traces. The pointer is live; read it
// through Snapshot.
func (t *Tracer) StageHistogram(s Stage) *Histogram {
	if t == nil || s >= StageCount {
		return nil
	}
	return &t.stages[s]
}

// Traces returns the retained traces, most recent first.
func (t *Tracer) Traces() []Record {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Record, 0, t.filled)
	for i := 0; i < t.filled; i++ {
		// next-1 is the most recently written slot.
		idx := (t.next - 1 - i + len(t.ring)) % len(t.ring)
		out = append(out, t.ring[idx])
	}
	return out
}

// push retires one completed trace into the ring.
func (t *Tracer) push(rec Record) {
	t.mu.Lock()
	t.ring[t.next] = rec
	t.next = (t.next + 1) % len(t.ring)
	if t.filled < len(t.ring) {
		t.filled++
	}
	t.mu.Unlock()
}

// Trace is one sampled request's in-progress trace. Span recording is
// mutex-guarded: the cold-plan flight a request leads runs in its own
// goroutine and records gate/compute spans concurrently with the
// request's own stages. All methods are safe on a nil receiver.
type Trace struct {
	tracer        *Tracer
	id            string
	endpoint      string
	forwardedFrom string
	start         time.Time

	mu       sync.Mutex
	finished bool
	spans    []Span
	dropped  int
}

// ID returns the trace ID ("" on a nil trace), as carried by
// TraceHeader and echoed in error bodies and the access log.
func (tr *Trace) ID() string {
	if tr == nil {
		return ""
	}
	return tr.id
}

// Timing is an in-progress span: Begin starts the clock, End records
// the span. It is a value, so an unsampled (nil-trace) Begin/End pair
// allocates nothing and never reads the clock.
type Timing struct {
	tr    *Trace
	stage Stage
	start time.Time
}

// Begin starts timing one stage. On a nil trace it returns an inert
// Timing without touching the clock.
func (tr *Trace) Begin(stage Stage) Timing {
	if tr == nil {
		return Timing{}
	}
	return Timing{tr: tr, stage: stage, start: time.Now()}
}

// End records the span with its outcome label.
func (h Timing) End(outcome string) { h.end(outcome, "", "") }

// EndPeer records a forwarding hop: the peer replica's name and its
// Server-Timing summary (the remote half of the stitched trace).
func (h Timing) EndPeer(outcome, peer, remote string) { h.end(outcome, peer, remote) }

func (h Timing) end(outcome, peer, remote string) {
	if h.tr == nil {
		return
	}
	now := time.Now()
	h.tr.record(Span{
		Stage:   h.stage.String(),
		StartNS: h.start.Sub(h.tr.start).Nanoseconds(),
		DurNS:   now.Sub(h.start).Nanoseconds(),
		Outcome: outcome,
		Peer:    peer,
		Remote:  remote,
	}, h.stage)
}

// record appends one completed span. Spans arriving after Finish —
// an abandoned cold-plan flight completing late — are dropped: the
// retired Record is immutable once in the ring.
func (tr *Trace) record(sp Span, stage Stage) {
	tr.tracer.stages[stage].Observe(sp.DurNS)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.finished || len(tr.spans) >= cap(tr.spans) {
		tr.dropped++
		return
	}
	tr.spans = append(tr.spans, sp)
}

// Finish retires the trace into the tracer's ring with the request's
// final status and overload outcome, feeds the slow-request log, and
// detaches the trace from later span recording. Idempotent.
func (tr *Trace) Finish(status int, outcome string) {
	if tr == nil {
		return
	}
	total := time.Since(tr.start).Nanoseconds()
	tr.mu.Lock()
	if tr.finished {
		tr.mu.Unlock()
		return
	}
	tr.finished = true
	spans := tr.spans
	tr.mu.Unlock()
	t := tr.tracer
	slow := t.slowNS > 0 && total > t.slowNS
	t.push(Record{
		ID:            tr.id,
		Endpoint:      tr.endpoint,
		Start:         tr.start,
		ForwardedFrom: tr.forwardedFrom,
		Status:        status,
		Outcome:       outcome,
		TotalNS:       total,
		Slow:          slow,
		Spans:         spans,
	})
	if slow {
		t.slow.Add(1)
		t.log.Printf("obs: slow request trace=%s endpoint=%s status=%d total=%v spans=%s",
			tr.id, tr.endpoint, status, time.Duration(total), summarize(spans))
	}
}

// ServerTiming renders the spans recorded so far as a Server-Timing
// header value: `stage;dur=<ms>` entries in recording order, prefixed
// with `app;dur=<ms>`, the elapsed total. Clients (cmd/respatd-bench)
// use it to attribute observed latency to serving stages; the entry
// replica of a forwarded request stores the peer's value verbatim on
// the hop span. Returns "" on a nil trace.
func (tr *Trace) ServerTiming() string {
	if tr == nil {
		return ""
	}
	tr.mu.Lock()
	spans := tr.spans
	tr.mu.Unlock()
	buf := make([]byte, 0, 32+32*len(spans))
	buf = append(buf, "app;dur="...)
	buf = appendMS(buf, time.Since(tr.start).Nanoseconds())
	for i := range spans {
		buf = append(buf, ", "...)
		buf = append(buf, spans[i].Stage...)
		buf = append(buf, ";dur="...)
		buf = appendMS(buf, spans[i].DurNS)
	}
	return string(buf)
}

// appendMS appends ns as fractional milliseconds with microsecond
// resolution, the Server-Timing convention.
func appendMS(buf []byte, ns int64) []byte {
	return strconv.AppendFloat(buf, float64(ns)/1e6, 'f', 3, 64)
}

// summarize renders spans compactly for the slow-request log.
func summarize(spans []Span) string {
	buf := make([]byte, 0, 32*len(spans))
	for i := range spans {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, spans[i].Stage...)
		if spans[i].Outcome != "" {
			buf = append(buf, ':')
			buf = append(buf, spans[i].Outcome...)
		}
		buf = append(buf, '=')
		buf = append(buf, time.Duration(spans[i].DurNS).String()...)
	}
	if len(buf) == 0 {
		return "none"
	}
	return string(buf)
}

// formatTraceID renders a trace ID as 16 lowercase hex digits.
func formatTraceID(x uint64) string {
	const hex = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = hex[x&0xf]
		x >>= 4
	}
	return string(b[:])
}

// validTraceID reports whether s is a well-formed forced trace ID (16
// lowercase hex digits). Anything else — including an empty header —
// falls back to the sampler, so a garbage header cannot force
// unbounded recording with attacker-chosen IDs.
func validTraceID(s string) bool {
	if len(s) != 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// splitmix64 is the standard 64-bit mix (Steele et al.), the repo-wide
// cheap deterministic stream (cf. internal/chaos).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
