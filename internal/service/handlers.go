package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"respat/internal/core"
	"respat/internal/obs"
	"respat/internal/platform"
	"respat/internal/sched"
)

// Request body limits: generous for single-plan bodies, larger for
// batches (which may carry thousands of items).
const (
	maxRequestBytes      = 1 << 20  // 1 MiB
	maxBatchRequestBytes = 16 << 20 // 16 MiB
	maxBatchItems        = 10000
)

// TimeoutHeader is the request header carrying a per-request deadline
// budget as a Go duration ("250ms", "2s"). It overrides the service's
// DefaultTimeout; requests without either run unbounded.
const TimeoutHeader = "X-Request-Timeout"

// OutcomeHeader is the response header labelling a request's overload
// disposition ("shed", "degraded", "deadline-exceeded"); absent on
// ordinary responses. The daemon's request log echoes it.
const OutcomeHeader = "X-Respatd-Outcome"

// maxRequestTimeout caps the budget a client may ask for; anything
// longer is clamped rather than rejected (the client asked for
// patience, it gets the maximum the service grants).
const maxRequestTimeout = 10 * time.Minute

// outcome labels a request's overload disposition for the outcome
// header and the daemon request log.
type outcome string

const (
	outcomeShed     outcome = "shed"
	outcomeDegraded outcome = "degraded"
	outcomeDeadline outcome = "deadline-exceeded"
)

// PlanRequest is the body of POST /v1/plan and /v1/plan/exact, and the
// configuration half of evaluate/batch items. Exactly one of Platform
// (a Table 2 name: Hera, Atlas, Coastal, Coastal-SSD) or the
// Costs+Rates pair must be given. Costs and Rates marshal with their Go
// field names (DiskCkpt, MemCkpt, ..., FailStop, Silent).
type PlanRequest struct {
	Kind     string      `json:"kind"`
	Platform string      `json:"platform,omitempty"`
	Costs    *core.Costs `json:"costs,omitempty"`
	Rates    *core.Rates `json:"rates,omitempty"`
}

// EvaluateRequest is the body of POST /v1/evaluate: an explicit pattern
// P(W, n, α, m, β) plus a platform or costs/rates configuration.
type EvaluateRequest struct {
	Pattern  *core.Pattern `json:"pattern"`
	Platform string        `json:"platform,omitempty"`
	Costs    *core.Costs   `json:"costs,omitempty"`
	Rates    *core.Rates   `json:"rates,omitempty"`
}

// BatchItem is one operation of a POST /v1/batch body: Op selects the
// endpoint ("plan", "plan/exact" or "evaluate"); the remaining fields
// are that endpoint's request.
type BatchItem struct {
	Op       string        `json:"op"`
	Kind     string        `json:"kind,omitempty"`
	Platform string        `json:"platform,omitempty"`
	Costs    *core.Costs   `json:"costs,omitempty"`
	Rates    *core.Rates   `json:"rates,omitempty"`
	Pattern  *core.Pattern `json:"pattern,omitempty"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Requests []BatchItem `json:"requests"`
}

// BatchResponse carries one response per request, in request order:
// either the operation's normal response body or {"error": "..."}.
type BatchResponse struct {
	Responses []json.RawMessage `json:"responses"`
}

// errorBody is the JSON error envelope of every non-2xx response.
// TraceID carries the request's trace ID when the request was sampled,
// so a client error report joins against /debug/traces and the access
// log without header archaeology.
type errorBody struct {
	Error   string `json:"error"`
	TraceID string `json:"traceId,omitempty"`
}

// resolveConfig turns the (platform | costs+rates) request half into a
// concrete configuration.
func resolveConfig(platName string, costs *core.Costs, rates *core.Rates) (core.Costs, core.Rates, error) {
	if platName != "" {
		if costs != nil || rates != nil {
			return core.Costs{}, core.Rates{}, errors.New("give either platform or costs/rates, not both")
		}
		p, err := platform.ByName(platName)
		if err != nil {
			return core.Costs{}, core.Rates{}, err
		}
		return p.Costs, p.Rates, nil
	}
	if costs == nil || rates == nil {
		return core.Costs{}, core.Rates{}, errors.New("need a platform name or both costs and rates")
	}
	return *costs, *rates, nil
}

// Handler returns the service's HTTP API.
//
//	POST   /v1/plan            first-order Table 1 plan (cached)
//	POST   /v1/plan/exact      exact-model plan (cached)
//	POST   /v1/plan/multilevel optimal multilevel pattern (cached)
//	POST   /v1/evaluate        exact expected time of a supplied pattern
//	POST   /v1/batch           many items fanned over a bounded worker pool
//	POST   /v1/observe         feed an observation to an adaptive session
//	GET    /v1/adaptive        adaptive session state + recommended plan
//	DELETE /v1/adaptive        drop an adaptive session
//	GET    /healthz            liveness probe
//	GET    /metrics            JSON counters and latency quantiles
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	plan := func(ep endpointID, mode Mode) {
		mux.HandleFunc("POST "+planRoutes[mode], s.instrument(ep, maxRequestBytes,
			func(r *http.Request, deadline time.Time) ([]byte, int, disposition, error) {
				return s.handlePlan(r, mode, deadline)
			}))
	}
	plan(epPlan, ModePlan)
	plan(epPlanExact, ModePlanExact)
	plan(epPlanMultilevel, ModePlanMultilevel)
	mux.HandleFunc("POST /v1/evaluate", s.instrument(epEvaluate, maxRequestBytes, s.handleEvaluate))
	mux.HandleFunc("POST /v1/batch", s.instrument(epBatch, maxBatchRequestBytes, s.handleBatch))
	mux.HandleFunc("POST /v1/observe", s.instrument(epObserve, maxRequestBytes, s.handleObserve))
	mux.HandleFunc("GET /v1/adaptive", s.instrument(epAdaptive, maxRequestBytes, s.handleAdaptive))
	mux.HandleFunc("DELETE /v1/adaptive", s.instrument(epAdaptiveDelete, maxRequestBytes, s.handleAdaptiveDelete))
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "prometheus" {
			w.Header().Set("Content-Type", obs.PromContentType)
			s.WritePrometheus(w)
			return
		}
		writeJSON(w, http.StatusOK, s.metrics.snapshot(s.cache.len(), s.SessionCount(), s.gate, s.peersDown()))
	})
	mux.HandleFunc("GET /debug/traces", s.DebugTraces)
	return mux
}

// DebugTraces serves the tracer's retained traces as JSON, most recent
// first. It is on the API mux at GET /debug/traces and exported so
// cmd/respatd can also mount it on the -debug-addr listener.
func (s *Service) DebugTraces(w http.ResponseWriter, r *http.Request) {
	recs := s.tracer.Traces()
	if recs == nil {
		recs = []obs.Record{}
	}
	writeJSON(w, http.StatusOK, recs)
}

// disposition carries response annotations from an endpoint handler
// back to instrument: the overload outcome label, and Retry-After
// advice relayed from a forwarded peer response (a peer's 429 must
// reach the client with the owner's estimate, not the entry replica's).
type disposition struct {
	out        outcome
	retryAfter int
}

// opHandler is one endpoint's body: it returns the response bytes or an
// error with an HTTP status, and the response's annotations. Returning
// the disposition, rather than writing it through a pointer, keeps
// instrument's copy on the stack. deadline is the instant the
// request's budget runs out (zero: unbounded); a handler arms it on
// its context before anything that can wait, and only then, so a
// request that never waits, such as a cache hit, arms no timer.
type opHandler func(r *http.Request, deadline time.Time) ([]byte, int, disposition, error)

// instrument wraps an endpoint with the in-flight gauge, the trace
// sampling decision, the per-request deadline budget (computed here,
// armed by the handler), the request body limit, latency recording,
// overload classification (shed → 429 + Retry-After, expired budget →
// 503) and the error envelope. The unsampled path adds one atomic add
// over the untraced build: Start returns nil and every later trace
// call is a nil-guarded no-op.
func (s *Service) instrument(ep endpointID, maxBytes int64, h opHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.metrics.InFlight.Add(1)
		tr := s.tracer.Start(ep.String(), header(r.Header, obs.TraceHeader), header(r.Header, ForwardedHeader))
		start := time.Now()
		// 500 until a handler outcome overwrites it, so a handler panic
		// (recovered by net/http) still counts as a server error.
		status := http.StatusInternalServerError
		var (
			body []byte
			d    disposition
		)
		// Deferred so a handler panic cannot leak the in-flight gauge
		// or skip the latency observation and trace retirement.
		defer func() {
			s.metrics.InFlight.Add(-1)
			s.metrics.observe(ep, time.Since(start), status)
			tr.Finish(status, string(d.out))
		}()
		budget, err := requestBudget(r, s.cfg.DefaultTimeout)
		if err != nil {
			status = http.StatusBadRequest
			setTraceHeaders(w, tr)
			writeJSON(w, status, errorBody{Error: err.Error(), TraceID: tr.ID()})
			return
		}
		var deadline time.Time
		if budget > 0 {
			deadline = start.Add(budget)
		}
		if tr != nil {
			r = r.WithContext(obs.NewContext(r.Context(), tr))
		}
		r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
		body, status, d, err = h(r, deadline)
		if err != nil {
			var tooBig *http.MaxBytesError
			switch {
			case errors.As(err, &tooBig):
				status = http.StatusRequestEntityTooLarge
			case errors.Is(err, ErrShed):
				// Load shed: advise the client when to come back,
				// derived from the observed cold-plan latencies.
				status = http.StatusTooManyRequests
				d.out = outcomeShed
				w.Header()["Retry-After"] = []string{strconv.Itoa(s.gate.retryAfter())}
			case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled), errors.Is(err, ErrTooTight):
				status = http.StatusServiceUnavailable
				d.out = outcomeDeadline
				s.metrics.DeadlineExceeded.Add(1)
				err = fmt.Errorf("deadline exceeded: %w", err)
			}
			setOutcome(w, d.out)
			setTraceHeaders(w, tr)
			writeJSON(w, status, errorBody{Error: err.Error(), TraceID: tr.ID()})
			return
		}
		if d.retryAfter > 0 {
			w.Header()["Retry-After"] = []string{strconv.Itoa(d.retryAfter)}
		}
		setOutcome(w, d.out)
		setTraceHeaders(w, tr)
		enc := tr.Begin(obs.StageEncode)
		writeBytes(w, status, body)
		enc.End("")
	}
}

// withDeadline arms a request's deadline on ctx; a zero deadline
// leaves ctx unbounded.
func withDeadline(ctx context.Context, deadline time.Time) (context.Context, context.CancelFunc) {
	if deadline.IsZero() {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, deadline)
}

// header returns the first value of h under name, as h.Get does, but
// by map index: every header name this package reads or writes is a
// constant already in canonical form (TestHeaderNamesCanonical), so
// canonicalising it on every request is wasted work.
func header(h http.Header, name string) string {
	if v := h[name]; len(v) > 0 {
		return v[0]
	}
	return ""
}

// setOutcome stamps the overload-disposition header when one applies.
func setOutcome(w http.ResponseWriter, out outcome) {
	if out != "" {
		w.Header()[OutcomeHeader] = []string{string(out)}
	}
}

// setTraceHeaders stamps a sampled request's response with its trace ID
// and the Server-Timing stage summary (spans recorded so far — the
// encode stage necessarily postdates the headers and appears only in
// the trace record). The bench client aggregates Server-Timing to
// attribute observed latency; the entry replica of a forwarded request
// stores the peer's value on the hop span.
func setTraceHeaders(w http.ResponseWriter, tr *obs.Trace) {
	if tr == nil {
		return
	}
	h := w.Header()
	h[obs.TraceHeader] = []string{tr.ID()}
	h["Server-Timing"] = []string{tr.ServerTiming()}
}

// requestBudget resolves a request's deadline budget: the
// TimeoutHeader duration when present (clamped to maxRequestTimeout),
// else the service default; 0 means unbounded.
func requestBudget(r *http.Request, def time.Duration) (time.Duration, error) {
	hdr := header(r.Header, TimeoutHeader)
	if hdr == "" {
		return def, nil
	}
	d, err := time.ParseDuration(hdr)
	if err != nil {
		return 0, fmt.Errorf("bad %s header: %w", TimeoutHeader, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("bad %s header: %v is not positive", TimeoutHeader, d)
	}
	return min(d, maxRequestTimeout), nil
}

// handlePlan serves all three plan routes in one order: decode, key,
// one cache lookup, owning peer, miss path, degraded fallback. The
// local cache answers regardless of ownership (it only holds keys this
// replica computed, typically while it owned them), then a peer-owned
// key forwards, and the miss path plans the rest locally without
// looking the key up again. A hit cannot wait, so only a forward or a
// miss arms the request's deadline.
func (s *Service) handlePlan(r *http.Request, mode Mode, deadline time.Time) ([]byte, int, disposition, error) {
	q, err := decodePlanRequest(r, mode)
	if err != nil {
		return nil, http.StatusBadRequest, disposition{}, err
	}
	key := q.key()
	tr := obs.FromContext(r.Context())
	tm := tr.Begin(obs.StageCacheLookup)
	resp, ok := s.cache.get(key)
	tm.End(hitMiss(ok))
	if ok {
		return resp, http.StatusOK, disposition{}, nil
	}
	ctx, cancel := withDeadline(r.Context(), deadline)
	defer cancel()
	if p, ok := s.routePeer(r, key); ok {
		return s.forward(ctx, p, key)
	}
	// Plan from the key's values, as an owner reached by a forward
	// does: −0 reads as +0, so no answer, not even an error naming a
	// zero, depends on the replica a request entered.
	if q, err = decodePlanKey(key[:], mode); err != nil {
		return nil, http.StatusBadRequest, disposition{}, err
	}
	body, err := s.planMiss(ctx, key, q)
	if err != nil {
		return s.degrade(tr, &q, err)
	}
	return body, http.StatusOK, disposition{}, nil
}

// degrade is the one fallback step of the plan routes. In degraded
// mode it answers a shed or too-tight exact or multilevel plan with
// the mode's first-order fallback, DegradedPlanExact or
// DegradedPlanMultilevel; it answers every other failure with err. A
// first-order plan is never gated, so it never sheds and never falls
// back.
func (s *Service) degrade(tr *obs.Trace, q *planRequest, err error) ([]byte, int, disposition, error) {
	if !s.cfg.Degraded || !(errors.Is(err, ErrShed) || errors.Is(err, ErrTooTight)) {
		return nil, http.StatusBadRequest, disposition{}, err
	}
	cc := tr.Begin(obs.StageColdCompute)
	var (
		body []byte
		derr error
	)
	if q.mode == ModePlanMultilevel {
		body, derr = s.DegradedPlanMultilevel(q.params)
	} else {
		body, derr = s.DegradedPlanExact(q.kind, q.costs, q.rates)
	}
	if derr != nil {
		cc.End("error")
		return nil, http.StatusBadRequest, disposition{}, err
	}
	cc.End("degraded")
	s.metrics.Degraded.Add(1)
	return body, http.StatusOK, disposition{out: outcomeDegraded}, nil
}

// handleEvaluate computes inline and never waits, so it arms no
// deadline.
func (s *Service) handleEvaluate(r *http.Request, _ time.Time) ([]byte, int, disposition, error) {
	var req EvaluateRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, http.StatusBadRequest, disposition{}, err
	}
	if req.Pattern == nil {
		return nil, http.StatusBadRequest, disposition{}, errors.New("missing pattern")
	}
	costs, rates, err := resolveConfig(req.Platform, req.Costs, req.Rates)
	if err != nil {
		return nil, http.StatusBadRequest, disposition{}, err
	}
	body, err := s.Evaluate(*req.Pattern, costs, rates)
	if err != nil {
		return nil, http.StatusBadRequest, disposition{}, err
	}
	return body, http.StatusOK, disposition{}, nil
}

func (s *Service) handleBatch(r *http.Request, deadline time.Time) ([]byte, int, disposition, error) {
	var req BatchRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, http.StatusBadRequest, disposition{}, err
	}
	if len(req.Requests) > maxBatchItems {
		return nil, http.StatusBadRequest, disposition{},
			fmt.Errorf("batch of %d items exceeds the limit of %d", len(req.Requests), maxBatchItems)
	}
	// Fan the items over the bounded pool of internal/sched — the same
	// discipline the experiment harness uses for campaign cells: items
	// are claimed in index order and each writes only its own slot.
	// Item errors become per-item {"error": ...} entries, so the cell
	// function itself never fails. The request context flows into every
	// item, so an expired batch budget stops the remaining cold plans.
	ctx, cancel := withDeadline(r.Context(), deadline)
	defer cancel()
	responses, _ := sched.Map(req.Requests, s.cfg.BatchWorkers,
		func(i int, item BatchItem) (json.RawMessage, error) {
			return s.batchItem(ctx, item), nil
		})
	body, err := marshalResponse(BatchResponse{Responses: responses})
	if err != nil {
		return nil, http.StatusInternalServerError, disposition{}, err
	}
	return body, http.StatusOK, disposition{}, nil
}

// batchItem executes one batch operation, folding its error (if any)
// into the response entry.
func (s *Service) batchItem(ctx context.Context, item BatchItem) json.RawMessage {
	body, err := func() ([]byte, error) {
		switch item.Op {
		case "plan", "plan/exact":
			kind, err := core.ParseKind(item.Kind)
			if err != nil {
				return nil, err
			}
			costs, rates, err := resolveConfig(item.Platform, item.Costs, item.Rates)
			if err != nil {
				return nil, err
			}
			if item.Op == "plan" {
				return s.PlanCtx(ctx, kind, costs, rates)
			}
			return s.PlanExactCtx(ctx, kind, costs, rates)
		case "evaluate":
			if item.Pattern == nil {
				return nil, errors.New("missing pattern")
			}
			costs, rates, err := resolveConfig(item.Platform, item.Costs, item.Rates)
			if err != nil {
				return nil, err
			}
			return s.Evaluate(*item.Pattern, costs, rates)
		default:
			return nil, fmt.Errorf("unknown op %q (plan, plan/exact, evaluate)", item.Op)
		}
	}()
	if err != nil {
		// Marshalling a flat string-field struct cannot fail.
		b, _ := json.Marshal(errorBody{Error: err.Error()})
		return b
	}
	return body
}

// decodePlanRequest reads, decodes and resolves a plan route's body
// under the decode span, as the request of mode: a peer-forwarded key
// (Content-Type peerBodyType) for any mode, else a PlanRequest body
// for the single-level modes and a MultilevelPlanRequest body for the
// multilevel mode.
func decodePlanRequest(r *http.Request, mode Mode) (q planRequest, err error) {
	tm := obs.FromContext(r.Context()).Begin(obs.StageDecode)
	defer func() { tm.End(errOutcome(err)) }()
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		return q, fmt.Errorf("bad request body: %w", err)
	}
	q.mode = mode
	switch {
	case header(r.Header, "Content-Type") == peerBodyType:
		return decodePlanKey(raw, mode)
	case mode == ModePlanMultilevel:
		q.params, err = parseMultilevelRequest(raw)
	default:
		q.kind, q.costs, q.rates, err = parsePlanRequest(raw)
	}
	return q, err
}

// parsePlanRequest decodes and resolves a plan request body.
func parsePlanRequest(raw []byte) (core.Kind, core.Costs, core.Rates, error) {
	var b planBody
	if err := decodePlanBody(raw, &b); err != nil {
		return 0, core.Costs{}, core.Rates{}, err
	}
	kind, err := core.ParseKind(b.kind)
	if err != nil {
		return 0, core.Costs{}, core.Rates{}, err
	}
	var costs *core.Costs
	if b.hasCosts {
		costs = &b.costs
	}
	var rates *core.Rates
	if b.hasRates {
		rates = &b.rates
	}
	c, r, err := resolveConfig(b.platform, costs, rates)
	if err != nil {
		return 0, core.Costs{}, core.Rates{}, err
	}
	return kind, c, r, nil
}

// errOutcome labels a span by whether its stage failed.
func errOutcome(err error) string {
	if err != nil {
		return "error"
	}
	return "ok"
}

// decodeBody strictly decodes one JSON body: unknown fields and
// trailing garbage are errors, so client typos fail loudly instead of
// silently planning defaults.
func decodeBody(r *http.Request, v any) (err error) {
	tm := obs.FromContext(r.Context()).Begin(obs.StageDecode)
	defer func() { tm.End(errOutcome(err)) }()
	raw, err := io.ReadAll(r.Body)
	if err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return decodeJSON(raw, v)
}

// decodeJSON is decodeBody over already-read bytes. Only whitespace may
// follow the value: Decoder.More reports false before a stray '}' or
// ']', so it cannot be the trailing-data check.
func decodeJSON(raw []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	if len(bytes.TrimLeft(raw[dec.InputOffset():], " \t\r\n")) != 0 {
		return errors.New("bad request body: trailing data")
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding failure"}`, http.StatusInternalServerError)
		return
	}
	writeBytes(w, status, b)
}

// newline ends every response body. It is a package-level slice because
// a []byte("\n") literal escapes through Write and allocates each time.
var newline = []byte{'\n'}

func writeBytes(w http.ResponseWriter, status int, body []byte) {
	w.Header()["Content-Type"] = []string{"application/json"}
	w.WriteHeader(status)
	w.Write(body)
	w.Write(newline)
}
