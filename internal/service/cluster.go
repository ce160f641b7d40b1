package service

// Distributed serving (DESIGN.md §2.9): a consistent-hash ring over N
// respatd replicas partitions the cacheable plan key space. Every
// replica answers any request; a request whose canonical cache key is
// owned by a peer is forwarded there (one hop, loop-guarded by
// ForwardedHeader) as its key, and the peer's response bytes are
// relayed verbatim, so a plan is byte-identical no matter which
// replica a client happens to hit while each key is decoded, computed
// and cached exactly once cluster-wide.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
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

// peerBodyType is the Content-Type of a forwarded plan request, whose
// body is the request's KeySize-byte canonical cache key. The owner
// rebuilds the request from the key (decodePlanKey), so replicas of
// one cluster must run the same build.
const peerBodyType = "application/x-respat-key"

// peerBodyTypes is the Content-Type value of every forward. The slice
// is shared: a RoundTripper must not modify the request it sends.
var peerBodyTypes = []string{peerBodyType}

// planRoutes maps each plan mode to its route.
var planRoutes = [...]string{
	ModePlan:           "/v1/plan",
	ModePlanExact:      "/v1/plan/exact",
	ModePlanMultilevel: "/v1/plan/multilevel",
}

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
}

// probeTimeout bounds one health probe.
const probeTimeout = 2 * time.Second

// clusterState is the service's view of the replica group. The ring
// pointer is swapped atomically on membership change so the
// per-request owner lookup takes no lock.
type clusterState struct {
	self      string
	selfValue []string          // ForwardedHeader value of every forward; shared like peerBodyTypes
	urls      map[string]string // member name -> base URL
	peers     map[string]*peer  // peer name -> its plan routes
	transport http.RoundTripper // carries forwards
	client    *http.Client      // carries health probes
	vnodes    int
	seed      uint64

	ring atomic.Pointer[cluster.Ring]

	mu   sync.Mutex
	down map[string]bool // peers failing their health probe
}

// peer is one other replica as a forward addresses it: its name and
// the URL of each plan route on it, parsed once by EnableCluster.
type peer struct {
	name   string
	routes [len(planRoutes)]*url.URL // indexed by Mode; nil for the retired mode
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
	peers := make(map[string]*peer, len(cfg.Members))
	selfSeen := false
	for _, m := range cfg.Members {
		if m.Name == "" {
			return errors.New("service: cluster member with empty name")
		}
		if _, dup := urls[m.Name]; dup {
			return fmt.Errorf("service: duplicate cluster member %q", m.Name)
		}
		urls[m.Name] = m.URL
		names = append(names, m.Name)
		if m.Name == cfg.Self {
			selfSeen = true
			continue
		}
		if m.URL == "" {
			return fmt.Errorf("service: cluster member %q needs a URL", m.Name)
		}
		p := &peer{name: m.Name}
		for mode, route := range planRoutes {
			if route == "" {
				continue
			}
			u, err := url.Parse(m.URL + route)
			if err != nil {
				return fmt.Errorf("service: cluster member %q: %w", m.Name, err)
			}
			p.routes[mode] = u
		}
		peers[m.Name] = p
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
	c := &clusterState{
		self:      cfg.Self,
		selfValue: []string{cfg.Self},
		urls:      urls,
		peers:     peers,
		transport: transport,
		client:    &http.Client{Transport: transport},
		vnodes:    cfg.VNodes,
		seed:      cfg.Seed,
		down:      make(map[string]bool),
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
func (s *Service) routePeer(r *http.Request, key Key) (*peer, bool) {
	c := s.clu
	if c == nil || header(r.Header, ForwardedHeader) != "" {
		return nil, false
	}
	owner := c.ring.Load().Route(key[:])
	if owner == "" || owner == c.self {
		return nil, false
	}
	return c.peers[owner], true
}

// forward sends one plan request, as its key, to the owning peer and
// relays the response verbatim: the exact body bytes (so a forwarded
// answer is byte-identical to one served by the owner directly), the
// status, the overload outcome label and any Retry-After advice. The
// request goes straight to the cluster's RoundTripper: a one-hop relay
// needs none of http.Client's redirect and header-copy machinery, and
// the route's URL was parsed once. A transport failure — the window
// between a replica dying and the next health check removing it from
// the ring — maps to 502 for that replica's key range; every other
// range is unaffected.
func (s *Service) forward(ctx context.Context, p *peer, key Key) ([]byte, int, disposition, error) {
	c := s.clu
	hdr := http.Header{"Content-Type": peerBodyTypes, ForwardedHeader: c.selfValue}
	// A sampled request ships its trace ID with the hop; the peer's
	// tracer records its half of the trace under the same forced ID, so
	// /debug/traces on both replicas join on one ID.
	tr := obs.FromContext(ctx)
	if id := tr.ID(); id != "" {
		hdr[obs.TraceHeader] = []string{id}
	}
	u := p.routes[key[0]] // a key's first byte is its mode
	body := &keyBody{key: key}
	tmpl := http.Request{
		Method:        http.MethodPost,
		URL:           u,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        hdr,
		Body:          body,
		GetBody:       body.rewind,
		ContentLength: KeySize,
		Host:          u.Host,
	}
	hop := tr.Begin(obs.StagePeerForward)
	resp, err := c.transport.RoundTrip(tmpl.WithContext(ctx))
	if err != nil {
		return s.forwardFailed(ctx, hop, p.name, fmt.Errorf("cluster: forward to %s: %w", p.name, err))
	}
	defer resp.Body.Close()
	// One byte past the limit tells a full relay from a cut one.
	relayed, err := io.ReadAll(io.LimitReader(resp.Body, maxRequestBytes+1))
	switch {
	case err != nil:
		return s.forwardFailed(ctx, hop, p.name, fmt.Errorf("cluster: reading %s's response: %w", p.name, err))
	case len(relayed) > maxRequestBytes:
		return s.forwardFailed(ctx, hop, p.name, fmt.Errorf("cluster: %s's response exceeds %d bytes", p.name, maxRequestBytes))
	}
	// The hop span stores the peer's Server-Timing verbatim: the remote
	// half of the stitched trace, attributable without a second lookup.
	hop.EndPeer("ok", p.name, header(resp.Header, "Server-Timing"))
	s.metrics.Forwarded.Add(1)
	d := disposition{out: outcome(header(resp.Header, OutcomeHeader))}
	if ra := header(resp.Header, "Retry-After"); ra != "" {
		if sec, err := strconv.Atoi(ra); err == nil {
			d.retryAfter = sec
		}
	}
	// writeBytes terminates every response with a newline; the entry
	// replica will append its own, so strip the owner's.
	return bytes.TrimSuffix(relayed, newline), resp.StatusCode, d, nil
}

// forwardFailed ends a failed hop. A hop cut short by the request's own
// deadline or cancellation answers with that context error, which
// instrument maps to 503 and counts in deadlineExceeded, however the
// transport reported it. Any other failure is the peer's: a 502,
// counted in forwardErrors.
func (s *Service) forwardFailed(ctx context.Context, hop obs.Timing, name string, err error) ([]byte, int, disposition, error) {
	hop.EndPeer("error", name, "")
	if cerr := ctx.Err(); cerr != nil {
		return nil, http.StatusServiceUnavailable, disposition{}, fmt.Errorf("cluster: forward to %s: %w", name, cerr)
	}
	s.metrics.ForwardErrors.Add(1)
	return nil, http.StatusBadGateway, disposition{}, err
}

// keyBody is a forward's body: the request's key, read once.
type keyBody struct {
	key Key
	off int
}

func (b *keyBody) Read(p []byte) (int, error) {
	if b.off == len(b.key) {
		return 0, io.EOF
	}
	n := copy(p, b.key[b.off:])
	b.off += n
	return n, nil
}

func (b *keyBody) Close() error { return nil }

// rewind is the forward's GetBody, so the transport can resend a
// request whose reused connection closed before it was written.
func (b *keyBody) rewind() (io.ReadCloser, error) { return &keyBody{key: b.key}, nil }

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
	pctx, cancel := context.WithTimeout(ctx, probeTimeout)
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
