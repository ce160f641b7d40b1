package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"respat/internal/core"
	"respat/internal/platform"
)

// fakeNet is an in-process cluster network: every replica's handler is
// reachable under its member name as host. It records the forwarded
// requests it carries and can cut a replica off to simulate a crash.
type fakeNet struct {
	mu       sync.Mutex
	handlers map[string]http.Handler
	dead     map[string]bool
	forwards []string // ForwardedHeader value of each forwarded request
}

// owner returns the replica owning key under the current ring view,
// or "" when clustering is off.
func (s *Service) owner(key Key) string {
	c := s.clu
	if c == nil {
		return ""
	}
	return c.ring.Load().Route(key[:])
}

func newFakeNet() *fakeNet {
	return &fakeNet{handlers: make(map[string]http.Handler), dead: make(map[string]bool)}
}

func (f *fakeNet) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	f.mu.Lock()
	h, ok := f.handlers[host]
	dead := f.dead[host]
	if v := req.Header.Get(ForwardedHeader); v != "" {
		f.forwards = append(f.forwards, v)
	}
	f.mu.Unlock()
	if !ok || dead {
		return nil, fmt.Errorf("fakenet: host %q unreachable", host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Result(), nil
}

func (f *fakeNet) setDead(host string, dead bool) {
	f.mu.Lock()
	f.dead[host] = dead
	f.mu.Unlock()
}

func (f *fakeNet) forwardLog() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.forwards...)
}

// newTestCluster builds n in-process replicas named r0..r(n-1) joined
// through a fakeNet.
func newTestCluster(t *testing.T, n int, cfg Config) ([]*Service, []http.Handler, *fakeNet) {
	t.Helper()
	net := newFakeNet()
	members := make([]Member, n)
	for i := range members {
		name := fmt.Sprintf("r%d", i)
		members[i] = Member{Name: name, URL: "http://" + name}
	}
	services := make([]*Service, n)
	handlers := make([]http.Handler, n)
	for i := range services {
		services[i] = New(cfg)
		if err := services[i].EnableCluster(ClusterConfig{
			Self:      members[i].Name,
			Members:   members,
			Seed:      9,
			Transport: net,
		}); err != nil {
			t.Fatal(err)
		}
		handlers[i] = services[i].Handler()
		net.mu.Lock()
		net.handlers[members[i].Name] = handlers[i]
		net.mu.Unlock()
	}
	return services, handlers, net
}

// do sends one request to a replica handler as an external client.
func do(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// clusterRequests is a spread of cacheable plan requests across all
// three routed endpoints and several configurations, so the key space
// exercises every replica.
func clusterRequests() []struct{ path, body string } {
	var reqs []struct{ path, body string }
	for _, plat := range []string{"Hera", "Atlas", "Coastal", "Coastal-SSD"} {
		for _, kind := range []string{"PD", "PDV", "PDMV"} {
			body := fmt.Sprintf(`{"kind":%q,"platform":%q}`, kind, plat)
			reqs = append(reqs,
				struct{ path, body string }{"/v1/plan", body},
				struct{ path, body string }{"/v1/plan/exact", body})
		}
		reqs = append(reqs, struct{ path, body string }{
			"/v1/plan/multilevel",
			fmt.Sprintf(`{"platform":%q,"levels":2}`, plat),
		})
	}
	return reqs
}

// TestClusterByteIdenticalAnyEntry is the headline distributed
// property: every replica returns byte-identical responses for every
// request, each taking at most one forwarding hop, and each distinct
// configuration is computed exactly once cluster-wide.
func TestClusterByteIdenticalAnyEntry(t *testing.T) {
	services, handlers, net := newTestCluster(t, 3, Config{})
	for _, rq := range clusterRequests() {
		var want []byte
		for entry, h := range handlers {
			before := len(net.forwardLog())
			rec := do(h, http.MethodPost, rq.path, rq.body)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s via r%d: status %d: %s", rq.path, entry, rec.Code, rec.Body.Bytes())
			}
			if hops := len(net.forwardLog()) - before; hops > 1 {
				t.Fatalf("%s via r%d took %d forwarding hops, want <= 1", rq.path, entry, hops)
			}
			if entry == 0 {
				want = append([]byte(nil), rec.Body.Bytes()...)
			} else if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("%s via r%d differs from r0:\n%s\nvs\n%s", rq.path, entry, rec.Body.Bytes(), want)
			}
		}
	}
	// Loop-guarded forwards carry exactly one replica name: a second
	// hop would have overwritten the header at a replica that, by the
	// guard, never forwards.
	for _, from := range net.forwardLog() {
		if from != "r0" && from != "r1" && from != "r2" {
			t.Fatalf("forwarded request carries unexpected origin %q", from)
		}
	}
	// Each distinct configuration computed exactly once cluster-wide:
	// total cache misses across replicas equals the distinct request
	// count (each request body is one distinct key).
	var misses int64
	for _, s := range services {
		misses += s.Metrics().Misses.Load()
	}
	if want := int64(len(clusterRequests())); misses != want {
		t.Fatalf("cluster computed %d cold plans for %d distinct configurations", misses, want)
	}
}

// TestClusterKillReplicaDegradesOnlyItsRange kills one replica and
// asserts (a) before a health check, only its key range fails — other
// ranges still answer; (b) after CheckPeerHealth rebuilds the ring,
// its former range is served by the survivors; (c) recovery restores
// the original routing.
func TestClusterKillReplicaDegradesOnlyItsRange(t *testing.T) {
	services, handlers, net := newTestCluster(t, 3, Config{})
	entry := services[0]

	// Partition the request spread by owning replica, as routed from r0.
	ownedBy := make(map[string][]struct{ path, body string })
	for _, rq := range clusterRequests() {
		if rq.path != "/v1/plan/exact" {
			continue
		}
		var req PlanRequest
		if err := json.Unmarshal([]byte(rq.body), &req); err != nil {
			t.Fatal(err)
		}
		kind, err := core.ParseKind(req.Kind)
		if err != nil {
			t.Fatal(err)
		}
		p, err := platform.ByName(req.Platform)
		if err != nil {
			t.Fatal(err)
		}
		owner := entry.owner(EncodeKey(ModePlanExact, kind, p.Costs, p.Rates))
		ownedBy[owner] = append(ownedBy[owner], rq)
	}
	// The victim is a peer of r0 that owns at least one request.
	victim := ""
	for _, name := range []string{"r1", "r2"} {
		if len(ownedBy[name]) > 0 {
			victim = name
			break
		}
	}
	if victim == "" {
		t.Fatal("no peer of r0 owns any test key; widen the request spread")
	}

	net.setDead(victim, true)
	for owner, reqs := range ownedBy {
		want := http.StatusOK
		if owner == victim {
			want = http.StatusBadGateway
		}
		for _, rq := range reqs {
			if rec := do(handlers[0], http.MethodPost, rq.path, rq.body); rec.Code != want {
				t.Fatalf("with %s dead, %s key %s via r0: status %d, want %d",
					victim, owner, rq.body, rec.Code, want)
			}
		}
	}
	if entry.Metrics().ForwardErrors.Load() == 0 {
		t.Fatal("dead-peer forwards did not count as forward errors")
	}

	// Health check: every live replica notices and drops the victim.
	ctx := context.Background()
	for i, s := range services {
		if fmt.Sprintf("r%d", i) == victim {
			continue
		}
		healthy := s.CheckPeerHealth(ctx)
		if healthy[victim] {
			t.Fatalf("r%d still sees %s as healthy", i, victim)
		}
	}
	if entry.peersDown() != 1 {
		t.Fatalf("peersDown = %d after losing one replica", entry.peersDown())
	}
	// The victim's former range now answers from the survivors, and
	// the victim no longer owns any key.
	for _, rq := range ownedBy[victim] {
		if rec := do(handlers[0], http.MethodPost, rq.path, rq.body); rec.Code != http.StatusOK {
			t.Fatalf("after rebalance, former %s key via r0: status %d: %s", victim, rec.Code, rec.Body.Bytes())
		}
	}

	// Recovery: the replica comes back, health checks restore the ring.
	net.setDead(victim, false)
	for i, s := range services {
		if fmt.Sprintf("r%d", i) == victim {
			continue
		}
		if healthy := s.CheckPeerHealth(ctx); !healthy[victim] {
			t.Fatalf("r%d still sees recovered %s as down", i, victim)
		}
	}
	if entry.peersDown() != 0 {
		t.Fatalf("peersDown = %d after recovery", entry.peersDown())
	}
	for _, rq := range ownedBy[victim] {
		if rec := do(handlers[0], http.MethodPost, rq.path, rq.body); rec.Code != http.StatusOK {
			t.Fatalf("after recovery, %s key via r0: status %d", victim, rec.Code)
		}
	}
}

// TestClusterMetricsExposed asserts the /metrics document carries the
// distributed-serving counters.
func TestClusterMetricsExposed(t *testing.T) {
	_, handlers, _ := newTestCluster(t, 3, Config{})
	for _, rq := range clusterRequests() {
		do(handlers[1], http.MethodPost, rq.path, rq.body)
	}
	rec := do(handlers[1], http.MethodGet, "/metrics", "")
	var snap Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Forwarded == 0 {
		t.Fatal("no forwards recorded in /metrics despite peer-owned keys")
	}
	if snap.PeersDown != 0 {
		t.Fatalf("peersDown = %d with all replicas alive", snap.PeersDown)
	}
}

// TestClusterForwardRace hammers all three replicas concurrently while
// a replica flaps dead/alive under health checks, then verifies the
// cluster neither raced (run with -race in CI) nor leaked goroutines.
func TestClusterForwardRace(t *testing.T) {
	baseline := runtime.NumGoroutine()
	services, handlers, net := newTestCluster(t, 3, Config{})
	reqs := clusterRequests()

	const (
		workers   = 8
		perWorker = 60
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(w), 0x5eed))
			for i := 0; i < perWorker; i++ {
				rq := reqs[rng.IntN(len(reqs))]
				rec := do(handlers[rng.IntN(len(handlers))], http.MethodPost, rq.path, rq.body)
				if rec.Code != http.StatusOK && rec.Code != http.StatusBadGateway {
					t.Errorf("unexpected status %d: %s", rec.Code, rec.Body.Bytes())
					return
				}
			}
		}(w)
	}
	// The flapper: r2 dies and recovers while health checks run on the
	// other replicas.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx := context.Background()
		for i := 0; i < 20; i++ {
			net.setDead("r2", i%2 == 0)
			services[0].CheckPeerHealth(ctx)
			services[1].CheckPeerHealth(ctx)
		}
		net.setDead("r2", false)
		services[0].CheckPeerHealth(ctx)
		services[1].CheckPeerHealth(ctx)
	}()
	wg.Wait()

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("goroutine leak: %d running, baseline %d", n, baseline)
	}
}

// TestEnableClusterValidation covers the misconfiguration errors.
func TestEnableClusterValidation(t *testing.T) {
	good := []Member{{Name: "a", URL: "http://a"}, {Name: "b", URL: "http://b"}}
	cases := []struct {
		name string
		cfg  ClusterConfig
	}{
		{"missing self", ClusterConfig{Members: good}},
		{"self not a member", ClusterConfig{Self: "c", Members: good}},
		{"empty member name", ClusterConfig{Self: "a", Members: []Member{{Name: "a"}, {URL: "http://x"}}}},
		{"duplicate member", ClusterConfig{Self: "a", Members: []Member{{Name: "a"}, {Name: "a"}}}},
		{"peer without URL", ClusterConfig{Self: "a", Members: []Member{{Name: "a"}, {Name: "b"}}}},
		{"unparsable peer URL", ClusterConfig{Self: "a", Members: []Member{{Name: "a"}, {Name: "b", URL: "http://[::1"}}}},
	}
	for _, tc := range cases {
		if err := New(Config{}).EnableCluster(tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	s := New(Config{})
	if err := s.EnableCluster(ClusterConfig{Self: "a", Members: good}); err != nil {
		t.Fatal(err)
	}
	if err := s.EnableCluster(ClusterConfig{Self: "a", Members: good}); err == nil {
		t.Fatal("second EnableCluster accepted")
	}
}

// peerFunc stands in for the owning peer of a two-replica cluster: it
// answers every forward.
type peerFunc func(*http.Request) (*http.Response, error)

func (f peerFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

// newEntry builds replica r0 of a two-replica cluster whose peer, r1 at
// peerURL, is reached through transport.
func newEntry(t *testing.T, transport http.RoundTripper, peerURL string) *Service {
	t.Helper()
	s := New(Config{})
	if err := s.EnableCluster(ClusterConfig{
		Self:      "r0",
		Members:   []Member{{Name: "r0"}, {Name: "r1", URL: peerURL}},
		Transport: transport,
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

// peerOwned returns the first request of clusterRequests, as a path and
// a JSON body, whose key entry forwards.
func peerOwned(t *testing.T, entry *Service) (path, body string) {
	t.Helper()
	for _, rq := range clusterRequests() {
		mode := ModePlan
		for m, route := range planRoutes {
			if route == rq.path {
				mode = Mode(m)
			}
		}
		q, err := decodePlanRequest(httptest.NewRequest(http.MethodPost, rq.path, strings.NewReader(rq.body)), mode)
		if err != nil {
			t.Fatal(err)
		}
		if owner := entry.owner(q.key()); owner != entry.clu.self {
			return rq.path, rq.body
		}
	}
	t.Fatal("the peer owns no request of the spread")
	return "", ""
}

// TestForwardingFaults maps each way a peer hop can fail to its
// documented answer and counter: a relay the entry cannot read whole is
// a 502 counted in forwardErrors, and a hop that outlives the request's
// budget is a 503 counted only in deadlineExceeded. Each case runs over
// an in-process transport; the truncation and deadline cases run once
// more over a real http.Transport and a loopback peer.
func TestForwardingFaults(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(t *testing.T)
	}{
		{"relay-limit", forwardRelayLimit},
		{"mid-body", forwardRelayFailsMidBody},
		{"truncated-loopback", forwardTruncatedRelayLoopback},
		{"deadline", forwardOutlivesBudget},
		{"deadline-loopback", forwardOutlivesBudgetLoopback},
	} {
		t.Run(tc.name, tc.run)
	}
}

// relay answers a forward with status 200 and body.
func relay(body io.Reader) (*http.Response, error) {
	return &http.Response{StatusCode: http.StatusOK, Header: http.Header{}, Body: io.NopCloser(body)}, nil
}

// forwardRelayLimit: a relay of maxRequestBytes is served, and one byte
// more is a 502 counted in forwardErrors. Reading only up to the limit
// would cut the longer relay short and serve its prefix with the
// owner's status.
func forwardRelayLimit(t *testing.T) {
	for _, n := range []int{maxRequestBytes, maxRequestBytes + 1} {
		entry := newEntry(t, peerFunc(func(*http.Request) (*http.Response, error) {
			return relay(bytes.NewReader(bytes.Repeat([]byte{' '}, n)))
		}), "http://r1")
		path, body := peerOwned(t, entry)
		rec := do(entry.Handler(), http.MethodPost, path, body)
		m := entry.Metrics()
		if n <= maxRequestBytes {
			if rec.Code != http.StatusOK || rec.Body.Len() != n+1 || m.ForwardErrors.Load() != 0 {
				t.Errorf("relay of %d bytes: status %d, %d bytes served, %d forward errors; want 200, %d, 0",
					n, rec.Code, rec.Body.Len(), m.ForwardErrors.Load(), n+1)
			}
			continue
		}
		if rec.Code != http.StatusBadGateway || m.ForwardErrors.Load() != 1 || m.Forwarded.Load() != 0 {
			t.Errorf("relay of %d bytes: status %d, %d forward errors, %d forwarded; want 502, 1, 0",
				n, rec.Code, m.ForwardErrors.Load(), m.Forwarded.Load())
		}
	}
}

// brokenBody yields a few bytes, then fails the read.
type brokenBody struct{ sent bool }

func (b *brokenBody) Read(p []byte) (int, error) {
	if !b.sent {
		b.sent = true
		return copy(p, `{"kind":`), nil
	}
	return 0, errors.New("connection reset by peer")
}

// forwardRelayFailsMidBody: a relay that fails after its headers and
// part of its body answers 502, counted in forwardErrors.
func forwardRelayFailsMidBody(t *testing.T) {
	entry := newEntry(t, peerFunc(func(*http.Request) (*http.Response, error) {
		return relay(&brokenBody{})
	}), "http://r1")
	path, body := peerOwned(t, entry)
	rec := do(entry.Handler(), http.MethodPost, path, body)
	if m := entry.Metrics(); rec.Code != http.StatusBadGateway || m.ForwardErrors.Load() != 1 {
		t.Fatalf("status %d with %d forward errors, want 502 with 1: %s", rec.Code, m.ForwardErrors.Load(), rec.Body)
	}
}

// forwardTruncatedRelayLoopback: over a real http.Transport, a
// loopback peer that declares a longer body than it sends, then hangs
// up, is a 502 counted in forwardErrors, not a relayed prefix.
func forwardTruncatedRelayLoopback(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Length", "100")
		io.WriteString(w, `{"kind":`)
	}))
	defer peer.Close()
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	entry := newEntry(t, transport, peer.URL)
	path, body := peerOwned(t, entry)
	rec := do(entry.Handler(), http.MethodPost, path, body)
	if m := entry.Metrics(); rec.Code != http.StatusBadGateway || m.ForwardErrors.Load() != 1 {
		t.Fatalf("status %d with %d forward errors, want 502 with 1: %s", rec.Code, m.ForwardErrors.Load(), rec.Body)
	}
}

// stalledBody blocks until its request's context is done, then fails
// with an error of its own.
type stalledBody struct{ ctx context.Context }

func (b stalledBody) Read([]byte) (int, error) {
	<-b.ctx.Done()
	return 0, errors.New("peer went quiet")
}

// forwardOutlivesBudget: a hop still running when the request's budget
// runs out answers 503 deadline-exceeded and counts only in
// deadlineExceeded, not in forwardErrors, whether the transport or the
// body read was waiting, and although neither reports a context error.
func forwardOutlivesBudget(t *testing.T) {
	for _, tc := range []struct {
		name string
		peer peerFunc
	}{
		{"transport", func(req *http.Request) (*http.Response, error) {
			<-req.Context().Done()
			return nil, errors.New("peer went quiet")
		}},
		{"body", func(req *http.Request) (*http.Response, error) {
			return relay(stalledBody{req.Context()})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkHopDeadline(t, newEntry(t, tc.peer, "http://r1"))
		})
	}
}

// forwardOutlivesBudgetLoopback is forwardOutlivesBudget over a real
// http.Transport and a loopback peer that never answers. A RoundTrip
// error is not wrapped in *url.Error as Client.Do's are, so the mapping
// to 503 is checked on the transport's own errors too.
func forwardOutlivesBudgetLoopback(t *testing.T) {
	release := make(chan struct{})
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	defer peer.Close()
	defer close(release)
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	checkHopDeadline(t, newEntry(t, transport, peer.URL))
}

// checkHopDeadline sends entry a peer-owned request with a 20 ms budget
// and requires the 503 of a hop that outlived it.
func checkHopDeadline(t *testing.T, entry *Service) {
	t.Helper()
	path, body := peerOwned(t, entry)
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.Header.Set(TimeoutHeader, "20ms")
	rec := httptest.NewRecorder()
	entry.Handler().ServeHTTP(rec, req)
	m := entry.Metrics()
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get(OutcomeHeader) != string(outcomeDeadline) {
		t.Fatalf("status %d, outcome %q; want 503 %s: %s", rec.Code, rec.Header().Get(OutcomeHeader), outcomeDeadline, rec.Body)
	}
	if m.DeadlineExceeded.Load() != 1 || m.ForwardErrors.Load() != 0 {
		t.Fatalf("deadlineExceeded %d, forwardErrors %d; want 1 and 0", m.DeadlineExceeded.Load(), m.ForwardErrors.Load())
	}
}
