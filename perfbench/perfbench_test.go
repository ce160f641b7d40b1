package main

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestKeySpaceDeterministicPerSeed(t *testing.T) {
	const n, requests = 500, 2000
	a, err := synthesize(7, n)
	if err != nil {
		t.Fatal(err)
	}
	b, err := synthesize(7, n)
	if err != nil {
		t.Fatal(err)
	}
	c, err := synthesize(8, n)
	if err != nil {
		t.Fatal(err)
	}
	sameAsC := 0
	paths := map[string]int{}
	for i := range a {
		if a[i].path != b[i].path || !bytes.Equal(a[i].body, b[i].body) || a[i].key != b[i].key {
			t.Fatalf("config %d differs between two syntheses at seed 7", i)
		}
		if a[i].path != c[i].path {
			t.Fatalf("config %d is %s at seed 7 and %s at seed 8; the mix must not depend on the seed", i, a[i].path, c[i].path)
		}
		if bytes.Equal(a[i].body, c[i].body) {
			sameAsC++
		}
		paths[a[i].path]++
	}
	if sameAsC > 0 {
		t.Errorf("%d configs identical at seeds 7 and 8", sameAsC)
	}
	for _, p := range []string{pathPlan, pathPlanExact, pathMultilevel} {
		if paths[p] == 0 {
			t.Errorf("no %s requests in %d configs", p, n)
		}
	}

	sa, sb, sc := newSequence(7, n, 3), newSequence(7, n, 3), newSequence(8, n, 3)
	diffItem, diffEntry := 0, 0
	entries := make([]int, 3)
	for i := int64(0); i < requests; i++ {
		ia, ea := sa.at(i)
		ib, eb := sb.at(i)
		ic, ec := sc.at(i)
		if ia != ib || ea != eb {
			t.Fatalf("request %d differs between two sequences at seed 7", i)
		}
		if ia != ic {
			diffItem++
		}
		if ea != ec {
			diffEntry++
		}
		entries[ea]++
	}
	if diffItem < requests/2 || diffEntry < requests/2 {
		t.Errorf("seeds 7 and 8 share too much: %d/%d items and %d/%d entries differ", diffItem, requests, diffEntry, requests)
	}
	for r, k := range entries {
		if k < requests/4 {
			t.Errorf("replica %d is the entry of only %d of %d requests", r, k, requests)
		}
	}
	if sa.traceID("request", 1) == sa.traceID("request", 2) || sa.traceID("request", 1) == sa.traceID("warm", 1) {
		t.Error("trace IDs repeat across requests or phases")
	}
}

func TestSequenceIsZipf(t *testing.T) {
	const n, requests = 1000, 100_000
	s := newSequence(3, n, 1)
	hits := make(map[int]int)
	for i := int64(0); i < requests; i++ {
		idx, _ := s.at(i)
		hits[idx]++
	}
	var h float64
	for r := 1; r <= n; r++ {
		h += math.Pow(float64(r), -zipfExponent)
	}
	for rank := 0; rank < 3; rank++ {
		want := math.Pow(float64(rank+1), -zipfExponent) / h
		if f := float64(hits[rank]) / requests; math.Abs(f-want) > 0.01 {
			t.Errorf("rank %d drew %.4f of requests, want %.4f", rank, f, want)
		}
	}
}

func TestParseServerTiming(t *testing.T) {
	got := parseServerTiming("app;dur=0.050, decode;dur=0.012,cache_lookup;dur=0.001 , bad, peer_forward;desc=x;dur=0.020, neg;dur=-1, nan;dur=x")
	want := []stage{{"app", 0.050}, {"decode", 0.012}, {"cache_lookup", 0.001}, {"peer_forward", 0.020}}
	if len(got) != len(want) {
		t.Fatalf("parsed %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("entry %d = %v, want %v", i, got[i], want[i])
		}
	}
	if parseServerTiming("") != nil {
		t.Error("empty header parsed to entries")
	}
	u, ok := unattributedMS(got)
	if !ok || math.Abs(u-(0.050-0.012-0.001-0.020)) > 1e-12 {
		t.Errorf("unattributed = %v %v, want 0.017", u, ok)
	}
	if _, ok := unattributedMS(want[1:]); ok {
		t.Error("a header without app has an unattributed part")
	}
}

func TestSelfTime(t *testing.T) {
	epoch := time.Unix(0, 0)
	var l spanLog
	l.epoch = epoch
	l.add("t", "hop", "request", epoch.Add(10*time.Microsecond), epoch.Add(45*time.Microsecond), "app;dur=0.030")
	s := l.spans[0]
	if s.durNS() != 35_000 {
		t.Fatalf("duration %d ns, want 35000", s.durNS())
	}
	app, _ := appMS(parseServerTiming(s.ServerTiming))
	if got := selfNS(s, app); math.Abs(got-5_000) > 1e-6 {
		t.Errorf("self time %v ns, want 5000", got)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i)
		}
		return s
	}
	if _, err := percentile(xs(999), 0.99); err == nil {
		t.Error("p99 of 999 samples was reported")
	}
	if v, err := percentile(xs(1000), 0.99); err != nil || math.Abs(v-989.01) > 1e-9 {
		t.Errorf("p99 of 0..999 = %v, %v; want 989.01", v, err)
	}
	if _, err := percentile(xs(19), 0.5); err == nil {
		t.Error("p50 of 19 samples was reported")
	}
	if v, err := percentile(xs(21), 0.5); err != nil || v != 10 {
		t.Errorf("p50 of 0..20 = %v, %v; want 10", v, err)
	}
}

func TestLayerMetricsNeedEveryLayerOnce(t *testing.T) {
	all := make([]metric, len(perLayer))
	for i, l := range perLayer {
		all[i] = metric{l.name, l.unit, float64(i + 1), 0}
	}
	reversed := slices.Clone(all)
	slices.Reverse(reversed)
	got, err := layerMetrics(reversed)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, all) {
		t.Errorf("layerMetrics did not return the declared order: %v", got)
	}
	first := perLayer[0].name
	for _, tc := range []struct {
		name string
		in   []metric
		want string
	}{
		{"missing", all[1:], first},
		{"twice", append(slices.Clone(all), all[0]), first},
		{"wrong unit", append([]metric{{first, "ms", 1, 0}}, all[1:]...), first},
		{"undeclared", append(slices.Clone(all), metric{"nope", "us", 3, 0}), "nope"},
	} {
		if _, err := layerMetrics(tc.in); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one naming %s", tc.name, err, tc.want)
		}
	}
}

func TestFingerprintComparedWithFirstRun(t *testing.T) {
	dir := t.TempDir()
	fp := func(misses, forwards int64) []count {
		return []count{{"misses", misses, true}, {"forwards", forwards, false}}
	}
	for _, tc := range []struct {
		seed             uint64
		misses, forwards int64
		want             string
	}{
		{1, 100, 7, "recorded"},
		{1, 100, 7, "matches"},
		{1, 101, 7, "matches"}, // interleaving jitter
		{1, 100 - jitterTolerance, 7, "matches"},
		{1, 100 + jitterTolerance + 1, 7, "MISMATCH"},
		{1, 100, 8, "MISMATCH"}, // an exact count
		{2, 100, 8, "recorded"}, // each seed has its own reference
	} {
		got := compareFingerprint(dir, "w", tc.seed, fp(tc.misses, tc.forwards))
		if !strings.Contains(got, tc.want) {
			t.Errorf("seed %d misses=%d forwards=%d: %q, want %q", tc.seed, tc.misses, tc.forwards, got, tc.want)
		}
	}
}

func TestWallSplit(t *testing.T) {
	ph := &reproPhase{passes: 4, elapsed: 8 * time.Second}
	ph.workers[0].busy = map[string]time.Duration{"fig9": 6 * time.Second, "fleet_pattern": 2 * time.Second}
	ph.workers[1].busy = map[string]time.Duration{"table1": 6 * time.Second, "fleet_multilevel": 2 * time.Second}
	repro, fleet := ph.wallSplit()
	if math.Abs(repro-1.5) > 1e-12 || math.Abs(fleet-0.5) > 1e-12 {
		t.Errorf("wallSplit = %v, %v; want 1.5, 0.5", repro, fleet)
	}
}

func TestReproCellsSeeded(t *testing.T) {
	order := func(seed uint64) string {
		var b strings.Builder
		for _, c := range reproCells(seed) {
			b.WriteString(c.artefact)
			b.WriteByte(' ')
		}
		return b.String()
	}
	a, b, c := order(1), order(1), order(2)
	if a != b {
		t.Error("cell order differs between two builds at seed 1")
	}
	if a == c {
		t.Error("seeds 1 and 2 give the same cell order")
	}
	if n := strings.Count(a, " "); n != 205 {
		t.Errorf("%d cells per pass, want 205", n)
	}
}

func TestServingRunChecksAndCounts(t *testing.T) {
	for _, replicas := range []int{3, 1} {
		spec := servingSpec{name: "test", configs: 64, replicas: replicas, warmAll: true, fingerprintN: 600, clients: 2}
		r, err := setUp(spec, 5, true)
		if err != nil {
			t.Fatal(err)
		}
		ts := r.timed(time.Nanosecond) // the fingerprint prefix only
		var res result
		r.l.tally(&res)
		r.recompute(&res, 5)
		if res.failed != 0 {
			t.Fatalf("%d replicas: %d checks failed: %v", replicas, res.failed, res.failures)
		}
		if want := int64(spec.configs) + spec.fingerprintN + recomputeSample; res.attempted != want {
			t.Errorf("%d replicas: attempted %d checks, want %d", replicas, res.attempted, want)
		}
		fp := ts.fingerprint
		if fp.hits != spec.fingerprintN || fp.misses != 0 {
			t.Errorf("%d replicas: %d hits, %d misses; want all %d timed requests to hit", replicas, fp.hits, fp.misses, spec.fingerprintN)
		}
		layers, self := r.l.spanLayers()
		byName := map[string]metric{}
		for _, m := range layers {
			byName[m.name] = m
		}
		if m := byName["service.app_us"]; m.n != int(spec.fingerprintN) || m.value <= 0 {
			t.Errorf("%d replicas: serving-replica app: %+v, want %d timings", replicas, m, spec.fingerprintN)
		}
		if m := byName["service.cold_compute_ms"]; m.n == 0 {
			t.Errorf("%d replicas: no cold computes traced during warm-up", replicas)
		}
		if self.n != int(spec.fingerprintN) || self.value <= 0 {
			t.Errorf("%d replicas: client self time %+v, want %d requests", replicas, self, spec.fingerprintN)
		}
		hop, hopped := byName["cluster.hop_us"]
		if replicas == 1 {
			// The traced run times the hop on a companion cluster-hot phase.
			if fp.forwarded != 0 || hopped {
				t.Errorf("1 replica: %d forwards, hop metric %+v", fp.forwarded, hop)
			}
			continue
		}
		if share := float64(fp.forwarded) / float64(spec.fingerprintN); share < 0.5 || share > 0.8 {
			t.Errorf("forwarded share %.2f, want ~2/3", share)
		}
		if hop.n != int(fp.forwarded) || hop.value <= 0 {
			t.Errorf("hop spans: %+v, want %d with a positive mean", hop, fp.forwarded)
		}
	}
}

func TestBlockMetrics(t *testing.T) {
	// Four blocks of 1000 units taking 1, 2, 0.5 and 2 seconds, then ten
	// units that fill no block. Block b's latencies are 1000b + 0..999.
	var ends, lat []float64
	prev := 0.0
	for b, dur := range []float64{1, 2, 0.5, 2} {
		for i := range 1000 {
			ends = append(ends, prev+dur*float64(i+1)/1000)
			lat = append(lat, float64(1000*b+i))
		}
		prev += dur
	}
	for i := range 10 {
		ends = append(ends, prev+float64(i+1))
		lat = append(lat, 1e6)
	}
	rates := blockRates(ends, 1000)
	if want := []float64{1000, 500, 2000, 500}; len(rates) != len(want) {
		t.Fatalf("block rates %v, want %v", rates, want)
	} else {
		for i := range want {
			if math.Abs(rates[i]-want[i]) > 1e-6 {
				t.Errorf("block %d rate %v, want %v", i, rates[i], want[i])
			}
		}
	}
	rps, p99, err := blockMetrics(ends, lat, 1000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	got := []metric{rps, p99}
	// Upper quartile of {500, 500, 1000, 2000} by nearest rank below is
	// 1000; lower quartile of the block p99s {989.01, 1989.01, ...} is the
	// first.
	want := []metric{{"throughput_rps", "1/s", 1000, 4}, {"p99_ms", "ms", 989.01, 4}}
	for i := range want {
		if got[i].name != want[i].name || got[i].n != want[i].n || math.Abs(got[i].value-want[i].value) > 1e-6 {
			t.Errorf("metric %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if _, _, err := blockMetrics(ends, lat, 1000, 999); err == nil {
		t.Error("a p99 over blocks of 999 units was reported")
	}
	if _, _, err := blockMetrics(ends[:999], lat[:999], 1000, 1000); err == nil {
		t.Error("metrics were reported without a full block")
	}
	if r := nearestRank([]float64{3, 1, 2}, 0.5); r != 2 {
		t.Errorf("nearestRank of {3, 1, 2} at 0.5 = %v, want 2", r)
	}
}

func TestCompletionOrder(t *testing.T) {
	ends, lat := completionOrder(
		[][]float64{{0.1, 0.4}, {0.2, 0.3}},
		[][]float64{{1, 4}, {2, 3}},
	)
	if !slices.Equal(ends, []float64{0.1, 0.2, 0.3, 0.4}) || !slices.Equal(lat, []float64{1, 2, 3, 4}) {
		t.Errorf("completionOrder = %v, %v", ends, lat)
	}
}
