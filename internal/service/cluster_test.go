package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
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
			Self:         members[i].Name,
			Members:      members,
			VNodes:       64,
			Seed:         9,
			Transport:    net,
			ProbeTimeout: time.Second,
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
