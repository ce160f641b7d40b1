package service

// Distributed serving (DESIGN.md §2.9): a consistent-hash ring over N
// respatd replicas partitions the cacheable plan key space. Every
// replica answers any request; a request whose canonical cache key is
// owned by a peer is forwarded there (one hop, loop-guarded by
// ForwardedHeader) and the peer's response bytes are relayed
// verbatim, so a plan is byte-identical no matter which replica a
// client happens to hit while each key is computed and cached exactly
// once cluster-wide.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"respat/internal/cluster"
	"respat/internal/obs"
)

// ForwardedHeader marks a peer-forwarded request. Its value is the
// forwarding replica's name. A replica receiving it always serves
// locally — never forwards again — which caps any request at one hop
// even when two replicas momentarily disagree about the membership.
const ForwardedHeader = "X-Respat-Forwarded"

// Member names one replica of a respatd cluster and its base URL
// (scheme://host:port, no trailing slash).
type Member struct {
	Name string
	URL  string
}

// ClusterConfig wires a Service into a consistent-hash replica group.
// Self, the member set, VNodes and Seed must agree across replicas —
// the ring is a pure function of (Seed, VNodes, members), so agreeing
// replicas route every key identically.
type ClusterConfig struct {
	// Self is this replica's name; it must appear in Members (its URL
	// entry is unused).
	Self string
	// Members is the full replica set, including self.
	Members []Member
	// VNodes is the virtual-node count per member (default
	// cluster.DefaultVNodes).
	VNodes int
	// Seed drives virtual-node placement (default 1).
	Seed uint64
	// Transport carries peer forwards and health probes (default
	// http.DefaultTransport). Tests inject an in-process transport.
	Transport http.RoundTripper
	// ProbeTimeout bounds one health probe (default 2s).
	ProbeTimeout time.Duration
}

// clusterState is the service's view of the replica group. The ring
// pointer is swapped atomically on membership change so the
// per-request owner lookup takes no lock.
type clusterState struct {
	self         string
	urls         map[string]string // member name -> base URL
	client       *http.Client
	probeTimeout time.Duration
	vnodes       int
	seed         uint64

	ring atomic.Pointer[cluster.Ring]

	mu   sync.Mutex
	down map[string]bool // peers failing their health probe
}

// EnableCluster joins the service to a replica group. Call it once,
// after New and before serving; it is not safe to call concurrently
// with request handling.
func (s *Service) EnableCluster(cfg ClusterConfig) error {
	if s.clu != nil {
		return errors.New("service: cluster already enabled")
	}
	if cfg.Self == "" {
		return errors.New("service: cluster config needs Self")
	}
	names := make([]string, 0, len(cfg.Members))
	urls := make(map[string]string, len(cfg.Members))
	selfSeen := false
	for _, m := range cfg.Members {
		if m.Name == "" {
			return errors.New("service: cluster member with empty name")
		}
		if _, dup := urls[m.Name]; dup {
			return fmt.Errorf("service: duplicate cluster member %q", m.Name)
		}
		if m.Name == cfg.Self {
			selfSeen = true
		} else if m.URL == "" {
			return fmt.Errorf("service: cluster member %q needs a URL", m.Name)
		}
		urls[m.Name] = m.URL
		names = append(names, m.Name)
	}
	if !selfSeen {
		return fmt.Errorf("service: self %q is not a cluster member", cfg.Self)
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	ring, err := cluster.New(cfg.Seed, cfg.VNodes, names)
	if err != nil {
		return err
	}
	transport := cfg.Transport
	if transport == nil {
		transport = http.DefaultTransport
	}
	probeTimeout := cfg.ProbeTimeout
	if probeTimeout <= 0 {
		probeTimeout = 2 * time.Second
	}
	c := &clusterState{
		self:         cfg.Self,
		urls:         urls,
		client:       &http.Client{Transport: transport},
		probeTimeout: probeTimeout,
		vnodes:       cfg.VNodes,
		seed:         cfg.Seed,
		down:         make(map[string]bool),
	}
	c.ring.Store(ring)
	s.clu = c
	return nil
}

// routePeer decides whether the request for key must be forwarded:
// clustering on, request not already forwarded (the single-hop loop
// guard), and the key owned by a peer under the current ring view.
// Peers the health checker marked down have already left the ring, so
// their former key ranges route to the survivors.
func (s *Service) routePeer(r *http.Request, key Key) (name, baseURL string, ok bool) {
	c := s.clu
	if c == nil || r.Header.Get(ForwardedHeader) != "" {
		return "", "", false
	}
	owner := c.ring.Load().Route(key[:])
	if owner == "" || owner == c.self {
		return "", "", false
	}
	return owner, c.urls[owner], true
}

// forward proxies one plan request to the owning peer and relays its
// response verbatim: the exact body bytes (so a forwarded answer is
// byte-identical to one served by the owner directly), the status,
// the overload outcome label and any Retry-After advice. A transport
// failure — the window between a replica dying and the next health
// check removing it from the ring — maps to 502 for that replica's
// key range; every other range is unaffected.
func (s *Service) forward(ctx context.Context, name, baseURL, path string, body []byte) ([]byte, int, disposition, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+path, bytes.NewReader(body))
	if err != nil {
		return nil, http.StatusInternalServerError, disposition{}, fmt.Errorf("cluster: building forward to %s: %w", name, err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardedHeader, s.clu.self)
	// A sampled request ships its trace ID with the hop; the peer's
	// tracer records its half of the trace under the same forced ID, so
	// /debug/traces on both replicas join on one ID.
	tr := obs.FromContext(ctx)
	if id := tr.ID(); id != "" {
		req.Header.Set(obs.TraceHeader, id)
	}
	hop := tr.Begin(obs.StagePeerForward)
	resp, err := s.clu.client.Do(req)
	if err != nil {
		hop.EndPeer("error", name, "")
		s.metrics.ForwardErrors.Add(1)
		return nil, http.StatusBadGateway, disposition{}, fmt.Errorf("cluster: forward to %s: %w", name, err)
	}
	defer resp.Body.Close()
	relayed, err := io.ReadAll(io.LimitReader(resp.Body, maxRequestBytes))
	if err != nil {
		hop.EndPeer("error", name, "")
		s.metrics.ForwardErrors.Add(1)
		return nil, http.StatusBadGateway, disposition{}, fmt.Errorf("cluster: reading %s's response: %w", name, err)
	}
	// The hop span stores the peer's Server-Timing verbatim: the remote
	// half of the stitched trace, attributable without a second lookup.
	hop.EndPeer("ok", name, resp.Header.Get("Server-Timing"))
	s.metrics.Forwarded.Add(1)
	d := disposition{out: outcome(resp.Header.Get(OutcomeHeader))}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if sec, err := strconv.Atoi(ra); err == nil {
			d.retryAfter = sec
		}
	}
	// writeBytes terminates every response with a newline; the entry
	// replica will append its own, so strip the owner's.
	return bytes.TrimSuffix(relayed, []byte("\n")), resp.StatusCode, d, nil
}

// CheckPeerHealth probes every peer's /healthz once and, when the
// healthy set changed, rebuilds the ring over the surviving members —
// the deterministic rebalance: every replica probing the same outcome
// converges on the same ring. It returns the probe outcome per peer.
// cmd/respatd runs it on a ticker (-health-interval); tests call it
// directly after injecting failures.
func (s *Service) CheckPeerHealth(ctx context.Context) map[string]bool {
	c := s.clu
	if c == nil {
		return nil
	}
	healthy := make(map[string]bool, len(c.urls)-1)
	for name, url := range c.urls {
		if name == c.self {
			continue
		}
		healthy[name] = c.probe(ctx, url)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	changed := false
	for name, up := range healthy {
		if c.down[name] == up { // state flip: down peer answered, or up peer failed
			changed = true
			if up {
				delete(c.down, name)
			} else {
				c.down[name] = true
			}
		}
	}
	if changed {
		members := make([]string, 0, len(c.urls))
		for name := range c.urls {
			if !c.down[name] {
				members = append(members, name)
			}
		}
		// Self is always a member, so the rebuild cannot fail.
		if ring, err := cluster.New(c.seed, c.vnodes, members); err == nil {
			c.ring.Store(ring)
		}
	}
	return healthy
}

// probe checks one peer's liveness endpoint.
func (c *clusterState) probe(ctx context.Context, baseURL string) bool {
	pctx, cancel := context.WithTimeout(ctx, c.probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, baseURL+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// peersDown counts peers currently excluded from the ring (the
// /metrics gauge).
func (s *Service) peersDown() int {
	c := s.clu
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.down)
}
