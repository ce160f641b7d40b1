package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"respat/internal/obs"
	"respat/internal/service"
)

// servingSpec describes one serving workload.
type servingSpec struct {
	name     string
	configs  int // size of the key space
	replicas int
	// warmAll requests every configuration once before timing;
	// otherwise the first warmPrefix requests of the sequence run
	// untimed, and timing starts at the next one.
	warmAll    bool
	warmPrefix int64
	// fingerprintN is how many timed requests the count fingerprint
	// covers: the run pauses there to read the counters exactly.
	fingerprintN int64
	// block is how many timed requests one block of blockMetrics holds.
	block int
	// setups is how many times a run sets up; setup_s is their median.
	setups int
	// clients is the closed-loop client count.
	clients int
}

// cluster-hot runs one closed-loop client: its requests are short and
// allocate, and with both cores of the two-core calibration machine
// serving, the garbage collector and the neighbours' load land on the
// timed requests; one client leaves a core for the collector and halved
// the run-to-run spread of its p99. zipf-tail runs two, one per core, so
// two cold searches can compete for the admission gate and coalesce in
// the singleflight.
var (
	clusterHot = servingSpec{name: "cluster-hot", configs: 256, replicas: 3, warmAll: true, fingerprintN: 100_000, block: 10_000, setups: 5, clients: 1}
	zipfTail   = servingSpec{name: "zipf-tail", configs: 100_000, replicas: 1, warmPrefix: 20_000, fingerprintN: 10_000, block: 2_000, setups: 3, clients: 2}
)

const (
	// recomputeSample is how many seen configurations a run recomputes
	// on a fresh standalone service.
	recomputeSample = 64
	// ringSeed is cmd/respatd's default -ring-seed.
	ringSeed = 1
	// untracedSampling is cmd/respatd's default -trace-sample.
	untracedSampling = 64
)

// serviceConfig is the configuration cmd/respatd builds from its flag
// defaults, with tracing sampling 1 in sampleEvery requests (0: none).
func serviceConfig(sampleEvery int) service.Config {
	procs := runtime.GOMAXPROCS(0)
	return service.Config{
		Shards:         16,
		Capacity:       4096,
		BatchWorkers:   procs,
		MaxSessions:    1024,
		ColdWorkers:    procs,
		ColdQueue:      4 * procs,
		DefaultTimeout: time.Minute,
		Tracer: obs.New(obs.Config{
			SampleEvery: sampleEvery,
			Seed:        1,
			Log:         log.New(io.Discard, "", 0),
		}),
	}
}

// deployment is a set of in-process replicas. It is also the transport
// of both the clients and the replicas' peer forwards: RoundTrip serves
// a request on the replica its host names by calling ServeHTTP, so no
// socket is involved.
type deployment struct {
	services []*service.Service
	names    []string
	handlers map[string]http.Handler // written only by deploy
}

func deploy(replicas, sampleEvery int) (*deployment, error) {
	d := &deployment{handlers: make(map[string]http.Handler, replicas)}
	members := make([]service.Member, replicas)
	for i := range members {
		name := fmt.Sprintf("r%d", i)
		members[i] = service.Member{Name: name, URL: "http://" + name}
		d.names = append(d.names, name)
	}
	for _, m := range members {
		svc := service.New(serviceConfig(sampleEvery))
		if replicas > 1 {
			err := svc.EnableCluster(service.ClusterConfig{
				Self:      m.Name,
				Members:   members,
				Seed:      ringSeed,
				Transport: d,
			})
			if err != nil {
				return nil, err
			}
		}
		d.services = append(d.services, svc)
		d.handlers[m.Name] = svc.Handler()
	}
	return d, nil
}

// RoundTrip serves req in-process. A peer forward of a traced request
// is recorded as a hop span carrying the owner's Server-Timing.
func (d *deployment) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := d.handlers[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no replica named %q", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	if req.Header.Get(service.ForwardedHeader) != "" {
		if l := spanLogFrom(req.Context()); l != nil {
			l.add(req.Header.Get(obs.TraceHeader), "hop", l.parent, start, time.Now(), rec.Header().Get("Server-Timing"))
		}
	}
	return rec.Result(), nil
}

// counters sums the cache, gate and cluster counters over replicas.
type counters struct {
	hits, misses, coalesced, evictions, admitted, shed, forwarded int64
}

func (d *deployment) counters() counters {
	var c counters
	for _, s := range d.services {
		m := s.Metrics()
		c.hits += m.Hits.Load()
		c.misses += m.Misses.Load()
		c.coalesced += m.Coalesced.Load()
		c.evictions += m.Evictions.Load()
		c.admitted += m.Admitted.Load()
		c.shed += m.Shed.Load()
		c.forwarded += m.Forwarded.Load()
	}
	return c
}

func (c counters) minus(o counters) counters {
	return counters{
		c.hits - o.hits, c.misses - o.misses, c.coalesced - o.coalesced,
		c.evictions - o.evictions, c.admitted - o.admitted, c.shed - o.shed,
		c.forwarded - o.forwarded,
	}
}

// client is one closed-loop client goroutine's state.
type client struct {
	checks
	lat  []float64 // timed request latencies, ms
	ends []float64 // their completion times, s since the timed phase began
	log  spanLog
	buf  bytes.Buffer
}

// load drives closed-loop traffic from the clients against a
// deployment and checks every response: a response must be
// byte-identical to the first response the run got for its
// configuration.
type load struct {
	d       *deployment
	items   []item
	seq     *sequence
	first   []atomic.Pointer[[]byte] // first response body per item
	traced  bool
	t0      time.Time // start of the timed phase
	clients []client
}

// picker maps a request index to its item and entry replica.
type picker func(i int64) (item, entry int)

// drive sends requests [from, to) of pick, each client taking the next
// index from a shared counter as soon as its previous request returns,
// until the range is done or the deadline (if not zero) has passed.
// Requests named "request" are the timed ones. It returns how many
// requests were sent.
func (l *load) drive(from, to int64, deadline time.Time, pick picker, name string) int64 {
	var next atomic.Int64
	next.Store(from)
	var sent atomic.Int64
	var wg sync.WaitGroup
	for c := range l.clients {
		cl := &l.clients[c]
		cl.log.parent = name
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= to || (!deadline.IsZero() && time.Now().After(deadline)) {
					return
				}
				idx, entry := pick(i)
				l.send(cl, i, idx, entry, name)
				sent.Add(1)
			}
		}()
	}
	wg.Wait()
	return sent.Load()
}

// send issues request i for item idx at replica entry and checks it.
func (l *load) send(cl *client, i int64, idx, entry int, name string) {
	it := &l.items[idx]
	ctx := context.Background()
	var traceID string
	if l.traced {
		traceID = l.seq.traceID(name, i)
		ctx = withSpanLog(ctx, &cl.log)
	}
	cl.attempted++
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+l.d.names[entry]+it.path, bytes.NewReader(it.body))
	if err != nil {
		cl.fail("request %d: %v", i, err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		req.Header.Set(obs.TraceHeader, traceID)
	}
	resp, err := l.d.RoundTrip(req)
	var status int
	var serverTiming string
	if err == nil {
		cl.buf.Reset()
		_, err = cl.buf.ReadFrom(resp.Body)
		resp.Body.Close()
		status = resp.StatusCode
		serverTiming = resp.Header.Get("Server-Timing")
	}
	end := time.Now()
	if name == "request" {
		cl.lat = append(cl.lat, float64(end.Sub(start).Nanoseconds())/1e6)
		cl.ends = append(cl.ends, end.Sub(l.t0).Seconds())
	}
	if l.traced {
		cl.log.add(traceID, name, "", start, end, serverTiming)
	}
	switch {
	case err != nil:
		cl.fail("request %d: %v", i, err)
	case status != http.StatusOK:
		cl.fail("request %d to %s: status %d: %s", i, it.path, status, bytes.TrimSpace(cl.buf.Bytes()))
	default:
		l.check(cl, i, idx)
	}
}

// check compares a response body with the first one the run got for
// the same configuration.
func (l *load) check(cl *client, i int64, idx int) {
	body := cl.buf.Bytes()
	if p := l.first[idx].Load(); p != nil {
		if !bytes.Equal(*p, body) {
			cl.fail("request %d: response for config %d differs from its first response", i, idx)
		}
		return
	}
	b := bytes.Clone(body)
	if !l.first[idx].CompareAndSwap(nil, &b) && !bytes.Equal(*l.first[idx].Load(), b) {
		cl.fail("request %d: response for config %d differs from its first response", i, idx)
	}
}

// latencies returns every client's timed latencies, sorted.
func (l *load) latencies() []float64 {
	var all []float64
	for c := range l.clients {
		all = append(all, l.clients[c].lat...)
	}
	sort.Float64s(all)
	return all
}

// timeline returns the timed requests in completion order: their
// completion times and latencies.
func (l *load) timeline() (ends, lat []float64) {
	e, t := make([][]float64, len(l.clients)), make([][]float64, len(l.clients))
	for c := range l.clients {
		e[c], t[c] = l.clients[c].ends, l.clients[c].lat
	}
	return completionOrder(e, t)
}

// tally adds the clients' request counts and failures to res.
func (l *load) tally(res *result) {
	for c := range l.clients {
		res.add(&l.clients[c].checks)
	}
}

// servingRun is one set-up deployment with its inputs.
type servingRun struct {
	spec     servingSpec
	items    []item
	seq      *sequence
	d        *deployment
	l        *load
	heapBase uint64        // live heap after input synthesis
	setup    time.Duration // synthesis + deployment + warm-up
}

// setUp synthesizes the inputs, deploys the replicas and warms them.
func setUp(spec servingSpec, seed uint64, traced bool) (*servingRun, error) {
	start := time.Now()
	items, err := synthesize(seed, spec.configs)
	if err != nil {
		return nil, err
	}
	seq := newSequence(seed, spec.configs, spec.replicas)
	first := make([]atomic.Pointer[[]byte], len(items))
	synth := time.Since(start)
	heapBase := liveHeap() // outside the set-up clock: it forces a GC

	start = time.Now()
	sampling := untracedSampling
	if traced {
		sampling = 1
	}
	d, err := deploy(spec.replicas, sampling)
	if err != nil {
		return nil, err
	}
	l := &load{d: d, items: items, seq: seq, first: first, traced: traced, clients: make([]client, spec.clients)}
	for c := range l.clients {
		l.clients[c].log.epoch = start
	}
	if spec.warmAll {
		l.drive(0, int64(len(items)), time.Time{}, func(i int64) (int, int) {
			return int(i), int(i) % spec.replicas
		}, "warm")
	} else {
		l.drive(0, spec.warmPrefix, time.Time{}, seq.at, "warm")
	}
	r := &servingRun{spec: spec, items: items, seq: seq, d: d, l: l, heapBase: heapBase}
	r.setup = synth + time.Since(start)
	return r, nil
}

// timedStats is what one timed phase measured.
type timedStats struct {
	sent        int64
	elapsed     time.Duration
	cpu         time.Duration
	fingerprint counters // over the first fingerprintN timed requests
	total       counters // over the whole timed phase
}

// timed runs the timed phase: the fingerprint prefix of the sequence,
// then more of it until the deadline.
func (r *servingRun) timed(seconds time.Duration) timedStats {
	base := int64(0)
	if !r.spec.warmAll {
		base = r.spec.warmPrefix
	}
	c0 := r.d.counters()
	cpu0 := cpuTime()
	start := time.Now()
	r.l.t0 = start
	deadline := start.Add(seconds)
	n := r.l.drive(base, base+r.spec.fingerprintN, time.Time{}, r.seq.at, "request")
	elapsed := time.Since(start)
	c1 := r.d.counters()
	start = time.Now()
	n += r.l.drive(base+r.spec.fingerprintN, math.MaxInt64, deadline, r.seq.at, "request")
	elapsed += time.Since(start)
	return timedStats{
		sent:        n,
		elapsed:     elapsed,
		cpu:         cpuTime() - cpu0,
		fingerprint: c1.minus(c0),
		total:       r.d.counters().minus(c0),
	}
}

// fingerprintOf lists the counts a fixed seed determines. With every
// configuration warm, cluster-hot's counts are exact; zipf-tail's move
// a little with how its two clients interleave around cold flights and
// evictions.
func fingerprintOf(spec servingSpec, c counters) []count {
	if spec.warmAll {
		return []count{{"forwards", c.forwarded, false}, {"hits", c.hits, false}, {"misses", c.misses, false}}
	}
	return []count{
		{"misses", c.misses, true}, {"evictions", c.evictions, true},
		{"cold_computes", c.admitted, true}, {"coalesced", c.coalesced, true},
	}
}

// recompute checks a seeded sample of the configurations the run served
// against a fresh standalone service: the served bytes must equal what
// Plan, PlanExact or PlanMultilevel return there.
func (r *servingRun) recompute(res *result, seed uint64) {
	var seen []int
	for i := range r.l.first {
		if r.l.first[i].Load() != nil {
			seen = append(seen, i)
		}
	}
	rand := rng(seed, streamSample)
	rand.Shuffle(len(seen), func(i, j int) { seen[i], seen[j] = seen[j], seen[i] })
	sample := seen[:min(recomputeSample, len(seen))]
	sort.Ints(sample)
	fresh := service.New(serviceConfig(0))
	for _, idx := range sample {
		it := &r.items[idx]
		var got []byte
		var err error
		switch it.path {
		case pathPlan:
			got, err = fresh.Plan(it.kind, it.costs, it.rates)
		case pathPlanExact:
			got, err = fresh.PlanExact(it.kind, it.costs, it.rates)
		default:
			got, err = fresh.PlanMultilevel(*it.ml)
		}
		res.attempted++
		served := bytes.TrimSuffix(*r.l.first[idx].Load(), []byte("\n"))
		switch {
		case err != nil:
			res.fail("recompute config %d: %v", idx, err)
		case !bytes.Equal(got, served):
			res.fail("config %d served %s, a fresh service computes %s", idx, served, got)
		}
	}
}

// runServing runs a serving workload: set up spec.setups times, then
// time the last set-up's deployment.
func runServing(spec servingSpec, o options) (result, error) {
	if o.trace {
		return traceServing(spec, o)
	}
	var setupS []float64
	var r *servingRun
	for k := 0; k < spec.setups; k++ {
		r = nil // let the previous deployment go before the next set-up
		var err error
		if r, err = setUp(spec, o.seed, false); err != nil {
			return result{}, err
		}
		setupS = append(setupS, r.setup.Seconds())
	}
	ts := r.timed(o.seconds)
	lat := r.l.latencies()
	p50, err := percentile(lat, 0.50)
	if err != nil {
		return result{}, err
	}
	ends, tlat := r.l.timeline()
	rps, p99, err := blockMetrics(ends, tlat, spec.block, spec.block)
	if err != nil {
		return result{}, err
	}
	var res result
	r.l.tally(&res)
	r.recompute(&res, o.seed)
	if r.spec.warmAll && ts.total.misses != 0 {
		res.fail("%d timed requests missed the cache; every one should hit", ts.total.misses)
	}
	// Drop the benchmark's own per-request state before reading the
	// heap, so live_heap_mb counts the service's memory only.
	for c := range r.l.clients {
		r.l.clients[c].lat, r.l.clients[c].ends = nil, nil
	}
	for i := range r.l.first {
		r.l.first[i].Store(nil)
	}
	heap := liveHeap()
	runtime.KeepAlive(r.d)
	res.fingerprint = fingerprintOf(spec, ts.fingerprint)
	res.metrics = []metric{
		rps,
		{"setup_s", "s", median(setupS), len(setupS)},
		{"live_heap_mb", "MB", (float64(heap) - float64(r.heapBase)) / (1 << 20), 0},
	}
	res.notes = []metric{p99, {"p50_ms", "ms", p50, len(lat)}}
	return res, nil
}

// liveHeap returns the bytes of heap in use after forced collections.
// The second collection frees what the first only moved out of
// sync.Pool caches, so pooled buffers do not count.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
