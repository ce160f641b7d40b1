package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"

	"respat/internal/service"
)

// TestServeEndToEnd boots the server on an ephemeral port, exercises
// the API over real HTTP, and shuts it down with SIGTERM (the graceful
// path production uses).
func TestServeEndToEnd(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	logger := log.New(io.Discard, "", 0)
	done := make(chan error, 1)
	go func() {
		done <- serve(ln, service.New(service.Config{}), logger, 5*time.Second, false)
	}()
	base := "http://" + ln.Addr().String()

	// The listener is already open, so requests cannot race the boot.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}

	r, err := http.Post(base+"/v1/plan", "application/json",
		strings.NewReader(`{"kind":"PDMV","platform":"Hera"}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("plan status %d: %s", r.StatusCode, body)
	}
	var plan struct {
		Kind string  `json:"kind"`
		W    float64 `json:"w"`
	}
	if err := json.Unmarshal(body, &plan); err != nil || plan.Kind != "PDMV" || plan.W <= 0 {
		t.Fatalf("bad plan body: %s", body)
	}

	// Adaptive session round-trip: create via observe, read back.
	r, err = http.Post(base+"/v1/observe", "application/json",
		strings.NewReader(`{"session":"e2e","kind":"PDMV","platform":"Hera","failstop":{"events":1,"exposure":1e6}}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("observe status %d: %s", r.StatusCode, body)
	}
	resp, err = http.Get(base + "/v1/adaptive?session=e2e")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("adaptive status %d: %s", resp.StatusCode, body)
	}
	var ar struct {
		Kind         string `json:"kind"`
		Observations int64  `json:"observations"`
	}
	if err := json.Unmarshal(body, &ar); err != nil || ar.Kind != "PDMV" || ar.Observations != 1 {
		t.Fatalf("bad adaptive body: %s", body)
	}

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v after SIGTERM, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not drain within 10s of SIGTERM")
	}
}

// TestRequestLog: the middleware logs method, path, status and latency
// and preserves the handler's status code.
func TestRequestLog(t *testing.T) {
	var buf strings.Builder
	logger := log.New(&buf, "", 0)
	h := requestLog(logger, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/plan", nil))
	if w.Code != http.StatusTeapot {
		t.Fatalf("status %d, want 418", w.Code)
	}
	line := buf.String()
	if !strings.Contains(line, "GET /v1/plan 418") {
		t.Fatalf("log line %q missing method/path/status", line)
	}
}

// TestRunBadAddr: an unbindable address fails fast instead of serving.
func TestRunBadAddr(t *testing.T) {
	if err := run("256.256.256.256:99999", "", service.Config{}, clusterFlags{}, time.Second, true); err == nil {
		t.Fatal("expected bind error")
	}
}

// TestDefaultFlagsLogEffectiveConfig: with default flags the startup
// line reports the cold-plan gate the service runs, not the flags'
// zero "use the default" values (-cold-queue 0 means 4x cold-workers).
func TestDefaultFlagsLogEffectiveConfig(t *testing.T) {
	o, err := parseFlags(flag.NewFlagSet("respatd", flag.ContinueOnError), nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.ColdQueue != 0 {
		t.Fatalf("default -cold-queue = %d; this test wants the 0 default", o.cfg.ColdQueue)
	}
	var buf strings.Builder
	ln, _, stop, err := start("127.0.0.1:0", o.debugAddr, o.cfg, o.cluster, log.New(&buf, "", 0))
	if err != nil {
		t.Fatal(err)
	}
	ln.Close()
	stop()
	line := buf.String()
	for _, name := range []string{"cold-workers", "cold-queue"} {
		_, after, ok := strings.Cut(line, " "+name+"=")
		if !ok {
			t.Fatalf("log line %q has no %s field", line, name)
		}
		var v int
		if _, err := fmt.Sscanf(after, "%d", &v); err != nil || v <= 0 {
			t.Fatalf("log line %q: %s = %d, want > 0", line, name, v)
		}
	}
}

// TestParsePeers covers the -peers syntax.
func TestParsePeers(t *testing.T) {
	members, err := parsePeers("a=http://a:8080, b=http://b:8080/ ,")
	if err != nil {
		t.Fatal(err)
	}
	want := []service.Member{
		{Name: "a", URL: "http://a:8080"},
		{Name: "b", URL: "http://b:8080"},
	}
	if len(members) != len(want) {
		t.Fatalf("parsed %d members, want %d", len(members), len(want))
	}
	for i := range want {
		if members[i] != want[i] {
			t.Fatalf("member %d = %+v, want %+v", i, members[i], want[i])
		}
	}
	if _, err := parsePeers("just-a-name"); err == nil {
		t.Fatal("entry without = accepted")
	}
	if _, err := parsePeers(" , "); err == nil {
		t.Fatal("empty peer list accepted")
	}
}

// TestRunClusterValidation: -self without -peers (and vice versa) and
// a self missing from the peer list fail fast.
func TestRunClusterValidation(t *testing.T) {
	if err := run("127.0.0.1:0", "", service.Config{},
		clusterFlags{self: "a"}, time.Second, true); err == nil {
		t.Fatal("-self without -peers accepted")
	}
	if err := run("127.0.0.1:0", "", service.Config{},
		clusterFlags{peers: "a=http://a"}, time.Second, true); err == nil {
		t.Fatal("-peers without -self accepted")
	}
	if err := run("127.0.0.1:0", "", service.Config{},
		clusterFlags{self: "z", peers: "a=http://a,b=http://b"}, time.Second, true); err == nil {
		t.Fatal("self outside the peer list accepted")
	}
}

// TestRequestLogOutcome: a response carrying the overload-disposition
// header gets an outcome= field in its log line.
func TestRequestLogOutcome(t *testing.T) {
	var buf strings.Builder
	logger := log.New(&buf, "", 0)
	h := requestLog(logger, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(service.OutcomeHeader, "shed")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/plan/exact", nil))
	line := buf.String()
	if !strings.Contains(line, "POST /v1/plan/exact 429") || !strings.Contains(line, "outcome=shed") {
		t.Fatalf("log line %q missing status or outcome", line)
	}
}
