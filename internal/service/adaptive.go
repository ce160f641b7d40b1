package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"respat/internal/adapt"
	"respat/internal/core"
	"respat/internal/faultfit"
)

// ObservedCounts is one error source's half of an observation: events
// arrivals over exposure seconds of time at risk.
type ObservedCounts struct {
	Events   int64   `json:"events"`
	Exposure float64 `json:"exposure"`
}

// ObserveRequest is the body of POST /v1/observe. The first request
// for a session id creates the session and must carry the pattern kind
// plus a platform name or costs/rates (the rates are the session's
// prior). Later requests may repeat the configuration (it is checked
// for consistency) or omit it. FailStop and Silent carry the interval
// observation; both may be omitted to create or poll a session without
// feeding it.
type ObserveRequest struct {
	Session  string      `json:"session"`
	Kind     string      `json:"kind,omitempty"`
	Platform string      `json:"platform,omitempty"`
	Costs    *core.Costs `json:"costs,omitempty"`
	Rates    *core.Rates `json:"rates,omitempty"`

	FailStop *ObservedCounts `json:"failstop,omitempty"`
	Silent   *ObservedCounts `json:"silent,omitempty"`

	// Optional tuning, honoured at session creation only.
	RegretThreshold float64 `json:"regretThreshold,omitempty"`
	MinObservations int     `json:"minObservations,omitempty"`
	Window          int     `json:"window,omitempty"`
	HalfLife        float64 `json:"halfLife,omitempty"`
}

// maxObserveWindow caps the per-session change-point window accepted
// over HTTP, tighter than faultfit.MaxWindow: the ring buffers are
// allocated eagerly per session, so the bound that matters to the
// daemon is window × MaxSessions (4096 × 2 rings × 16 B × 1024
// sessions ≈ 128 MiB worst case, vs ~2 GiB at faultfit's library
// limit).
const maxObserveWindow = 4096

// ObserveResponse is the body returned by POST /v1/observe.
type ObserveResponse struct {
	Session string `json:"session"`
	// Rates are the fitted rates after the observation.
	Rates core.Rates `json:"rates"`
	// Replanned reports whether this observation triggered a plan swap;
	// Regret is the relative excess overhead that was measured.
	Replanned bool    `json:"replanned"`
	Regret    float64 `json:"regret"`
	// Session counters after the observation.
	Observations int64 `json:"observations"`
	Swaps        int64 `json:"swaps"`
	Drifts       int64 `json:"drifts"`
}

// AdaptiveResponse is the body of GET /v1/adaptive: the session's
// fitted rates, counters, the plan the session currently recommends at
// those rates, and the plan it is actually running.
type AdaptiveResponse struct {
	Session string     `json:"session"`
	Kind    string     `json:"kind"`
	Rates   core.Rates `json:"rates"`

	Observations     int64   `json:"observations"`
	Swaps            int64   `json:"swaps"`
	Drifts           int64   `json:"drifts"`
	PredictedSavings float64 `json:"predictedSavings"`

	// Plan is the first-order optimal plan at the fitted rates, served
	// through the plan cache: its bytes are identical to what POST
	// /v1/plan returns for (kind, costs, rates).
	Plan json.RawMessage `json:"plan"`
	// Current is the plan the session is running, which trails Plan
	// until the regret threshold triggers the next swap.
	Current PlanResponse `json:"current"`
}

// Observe routes one observation to the named adaptive session,
// creating it on first use. It returns the marshalled ObserveResponse.
func (s *Service) Observe(req ObserveRequest) ([]byte, error) {
	var obs adapt.Observation
	if req.FailStop != nil {
		obs.FailStopEvents = req.FailStop.Events
		obs.FailStopExposure = req.FailStop.Exposure
	}
	if req.Silent != nil {
		obs.SilentEvents = req.Silent.Events
		obs.SilentExposure = req.Silent.Exposure
	}
	// Validate the observation before looking up or creating the
	// session: a rejected request must not leave a fresh session behind
	// a 400 (filling the MaxSessions table with dead entries).
	if err := faultfit.ValidateInterval(obs.FailStopEvents, obs.FailStopExposure); err != nil {
		return nil, err
	}
	if err := faultfit.ValidateInterval(obs.SilentEvents, obs.SilentExposure); err != nil {
		return nil, err
	}
	sess, err := s.adaptiveSession(req)
	if err != nil {
		return nil, err
	}
	d, err := sess.Observe(obs)
	if err != nil {
		return nil, err
	}
	return marshalResponse(ObserveResponse{
		Session:      req.Session,
		Rates:        d.Rates,
		Replanned:    d.Replanned,
		Regret:       d.Regret,
		Observations: d.Observations,
		Swaps:        d.Swaps,
		Drifts:       d.Drifts,
	})
}

// Adaptive returns the marshalled AdaptiveResponse of the named
// session. The embedded plan is served through the plan cache, so its
// bytes are identical to a cold POST /v1/plan at the fitted rates.
func (s *Service) Adaptive(name string) ([]byte, error) {
	s.sessMu.Lock()
	sess, ok := s.sessions[name]
	s.sessMu.Unlock()
	if !ok {
		return nil, errSessionNotFound(name)
	}
	st := sess.Status()
	planBytes, err := s.Plan(st.Kind, sess.Costs(), st.Rates)
	if err != nil {
		return nil, err
	}
	return marshalResponse(AdaptiveResponse{
		Session:          name,
		Kind:             st.Kind.String(),
		Rates:            st.Rates,
		Observations:     st.Observations,
		Swaps:            st.Swaps,
		Drifts:           st.Drifts,
		PredictedSavings: st.PredictedSavings,
		Plan:             json.RawMessage(planBytes),
		Current: PlanResponse{
			Kind:     st.Plan.Kind.String(),
			N:        st.Plan.N,
			M:        st.Plan.M,
			W:        st.Plan.W,
			Overhead: st.Plan.Overhead,
		},
	})
}

// DropSession removes the named session, reporting whether it existed.
func (s *Service) DropSession(name string) bool {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if _, ok := s.sessions[name]; !ok {
		return false
	}
	delete(s.sessions, name)
	return true
}

// SessionCount returns the number of live adaptive sessions.
func (s *Service) SessionCount() int {
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	return len(s.sessions)
}

// errNotFound tags lookup failures so the handler can map them to 404.
type errNotFound string

func (e errNotFound) Error() string { return string(e) }

func errSessionNotFound(name string) error {
	return errNotFound(fmt.Sprintf("unknown adaptive session %q", name))
}

// errTooMany tags session-table overflow so the handler can map it to
// 429.
var errTooMany = errors.New("adaptive session table full")

// adaptiveSession returns the session named in req, creating it when
// the request carries a configuration and the id is new. Existing
// sessions reject requests whose configuration contradicts theirs —
// a mistyped session id must fail loudly, not silently feed another
// experiment's estimators.
func (s *Service) adaptiveSession(req ObserveRequest) (*adapt.Session, error) {
	if req.Session == "" {
		return nil, errors.New("missing session id")
	}
	s.sessMu.Lock()
	defer s.sessMu.Unlock()
	if sess, ok := s.sessions[req.Session]; ok {
		if req.Kind != "" {
			kind, err := core.ParseKind(req.Kind)
			if err != nil {
				return nil, err
			}
			if kind != sess.Kind() {
				return nil, fmt.Errorf("session %q plans %v, request says %v", req.Session, sess.Kind(), kind)
			}
		}
		if req.Platform != "" || req.Costs != nil || req.Rates != nil {
			costs, rates, err := resolveConfig(req.Platform, req.Costs, req.Rates)
			if err != nil {
				return nil, err
			}
			if costs != sess.Costs() || rates != sess.Prior() {
				return nil, fmt.Errorf("session %q was created with a different configuration", req.Session)
			}
		}
		// Tuning is fixed at creation: a replay of the creation values is
		// fine (the documented repeat-the-configuration pattern), but a
		// reconfiguration attempt fails loudly rather than being
		// silently ignored.
		cfg := sess.Config()
		if (req.RegretThreshold != 0 && req.RegretThreshold != cfg.RegretThreshold) ||
			(req.MinObservations != 0 && req.MinObservations != cfg.MinObservations) ||
			(req.Window != 0 && req.Window != cfg.FailStop.Window) ||
			(req.HalfLife != 0 && req.HalfLife != cfg.FailStop.HalfLife) {
			return nil, fmt.Errorf("session %q was created with different tuning: tuning fields are honoured at creation only", req.Session)
		}
		return sess, nil
	}
	if req.Kind == "" {
		return nil, fmt.Errorf("unknown adaptive session %q: the first observe must carry kind and platform or costs/rates", req.Session)
	}
	kind, err := core.ParseKind(req.Kind)
	if err != nil {
		return nil, err
	}
	costs, rates, err := resolveConfig(req.Platform, req.Costs, req.Rates)
	if err != nil {
		return nil, err
	}
	if req.Window > maxObserveWindow {
		return nil, fmt.Errorf("window = %d, need <= %d", req.Window, maxObserveWindow)
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		return nil, errTooMany
	}
	sess, err := adapt.NewSession(adapt.Config{
		Kind:            kind,
		Costs:           costs,
		Prior:           rates,
		RegretThreshold: req.RegretThreshold,
		MinObservations: req.MinObservations,
		FailStop:        faultfit.OnlineConfig{Window: req.Window, HalfLife: req.HalfLife},
		Silent:          faultfit.OnlineConfig{Window: req.Window, HalfLife: req.HalfLife},
	})
	if err != nil {
		return nil, err
	}
	if s.sessions == nil {
		s.sessions = make(map[string]*adapt.Session)
	}
	s.sessions[req.Session] = sess
	return sess, nil
}

// handleObserve is POST /v1/observe.
func (s *Service) handleObserve(r *http.Request, _ time.Time) ([]byte, int, disposition, error) {
	var req ObserveRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, http.StatusBadRequest, disposition{}, err
	}
	body, err := s.Observe(req)
	if err != nil {
		return nil, adaptiveStatus(err), disposition{}, err
	}
	return body, http.StatusOK, disposition{}, nil
}

// handleAdaptive is GET /v1/adaptive?session=NAME.
func (s *Service) handleAdaptive(r *http.Request, _ time.Time) ([]byte, int, disposition, error) {
	name := r.URL.Query().Get("session")
	if name == "" {
		return nil, http.StatusBadRequest, disposition{}, errors.New("missing session query parameter")
	}
	body, err := s.Adaptive(name)
	if err != nil {
		return nil, adaptiveStatus(err), disposition{}, err
	}
	return body, http.StatusOK, disposition{}, nil
}

// handleAdaptiveDelete is DELETE /v1/adaptive?session=NAME.
func (s *Service) handleAdaptiveDelete(r *http.Request, _ time.Time) ([]byte, int, disposition, error) {
	name := r.URL.Query().Get("session")
	if name == "" {
		return nil, http.StatusBadRequest, disposition{}, errors.New("missing session query parameter")
	}
	if !s.DropSession(name) {
		return nil, http.StatusNotFound, disposition{}, errSessionNotFound(name)
	}
	b, err := marshalResponse(map[string]string{"status": "deleted", "session": name})
	if err != nil {
		return nil, http.StatusInternalServerError, disposition{}, err
	}
	return b, http.StatusOK, disposition{}, nil
}

// adaptiveStatus maps adaptive-session errors to HTTP statuses.
func adaptiveStatus(err error) int {
	var nf errNotFound
	switch {
	case errors.As(err, &nf):
		return http.StatusNotFound
	case errors.Is(err, errTooMany):
		return http.StatusTooManyRequests
	default:
		return http.StatusBadRequest
	}
}
