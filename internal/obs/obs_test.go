package obs

import (
	"encoding/json"
	"log"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSamplerDeterministic(t *testing.T) {
	pick := func(seed uint64) []uint64 {
		tr := New(Config{SampleEvery: 8, Seed: seed})
		var hits []uint64
		for i := 0; i < 1024; i++ {
			if h := tr.Start("plan", "", ""); h != nil {
				hits = append(hits, uint64(i))
				h.Finish(200, "")
			}
		}
		return hits
	}
	a, b := pick(7), pick(7)
	if len(a) == 0 {
		t.Fatal("sampler never fired over 1024 requests at 1-in-8")
	}
	// Roughly 1 in 8: allow a wide band, the draw is hash-based.
	if len(a) < 64 || len(a) > 256 {
		t.Fatalf("1-in-8 sampler hit %d of 1024", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := pick(8)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical sampling sequences")
	}
}

func TestSampleEveryOneAndZero(t *testing.T) {
	always := New(Config{SampleEvery: 1})
	for i := 0; i < 10; i++ {
		if always.Start("plan", "", "") == nil {
			t.Fatalf("SampleEvery=1 skipped request %d", i)
		}
	}
	never := New(Config{SampleEvery: 0})
	for i := 0; i < 100; i++ {
		if never.Start("plan", "", "") != nil {
			t.Fatal("SampleEvery=0 sampled a request")
		}
	}
}

func TestForcedIDBypassesSampler(t *testing.T) {
	tr := New(Config{SampleEvery: 0})
	h := tr.Start("plan", "00ff00ff00ff00ff", "r1")
	if h == nil {
		t.Fatal("forced ID was not sampled with sampling disabled")
	}
	if h.ID() != "00ff00ff00ff00ff" {
		t.Fatalf("forced ID not preserved: %q", h.ID())
	}
	h.Finish(200, "")
	recs := tr.Traces()
	if len(recs) != 1 || recs[0].ForwardedFrom != "r1" {
		t.Fatalf("forwardedFrom lost: %+v", recs)
	}
	// Malformed IDs fall back to the (disabled) sampler.
	for _, bad := range []string{"", "zzzzzzzzzzzzzzzz", "ABCDEF0123456789", "0123", strings.Repeat("a", 17)} {
		if tr.Start("plan", bad, "") != nil {
			t.Fatalf("malformed forced ID %q was sampled", bad)
		}
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if tr.Start("plan", "", "") != nil {
		t.Fatal("nil tracer sampled")
	}
	if tr.Sampled() != 0 || tr.Slow() != 0 || tr.Traces() != nil || tr.StageHistogram(StageDecode) != nil {
		t.Fatal("nil tracer accessors not inert")
	}
	var h *Trace
	if h.ID() != "" {
		t.Fatal("nil trace has an ID")
	}
	tm := h.Begin(StageDecode)
	tm.End("ok")
	tm.EndPeer("ok", "r1", "app;dur=1")
	h.Finish(200, "")
	if h.ServerTiming() != "" {
		t.Fatal("nil trace has Server-Timing")
	}
	var hist *Histogram
	hist.Observe(5)
	if s := hist.Snapshot(); s.Count != 0 {
		t.Fatal("nil histogram counted")
	}
}

func TestUnsampledPathZeroAlloc(t *testing.T) {
	tr := New(Config{SampleEvery: 1 << 30})
	allocs := testing.AllocsPerRun(1000, func() {
		h := tr.Start("plan", "", "")
		tm := h.Begin(StageCacheLookup)
		tm.End("hit")
		h.Finish(200, "")
	})
	if allocs != 0 {
		t.Fatalf("unsampled request path allocates: %.1f allocs/op", allocs)
	}
}

func TestTraceRecordAndRingOrder(t *testing.T) {
	tr := New(Config{SampleEvery: 1, Ring: 4})
	endpoints := []string{"a", "b", "c", "d", "e", "f"}
	for _, ep := range endpoints {
		h := tr.Start(ep, "", "")
		tm := h.Begin(StageCacheLookup)
		tm.End("miss")
		tm = h.Begin(StageColdCompute)
		tm.End("ok")
		h.Finish(200, "")
	}
	recs := tr.Traces()
	if len(recs) != 4 {
		t.Fatalf("ring of 4 holds %d", len(recs))
	}
	// Most recent first: f, e, d, c.
	for i, want := range []string{"f", "e", "d", "c"} {
		if recs[i].Endpoint != want {
			t.Fatalf("ring order: got %q at %d, want %q", recs[i].Endpoint, i, want)
		}
	}
	r := recs[0]
	if len(r.Spans) != 2 || r.Spans[0].Stage != "cache_lookup" || r.Spans[0].Outcome != "miss" ||
		r.Spans[1].Stage != "cold_compute" || r.Spans[1].Outcome != "ok" {
		t.Fatalf("spans wrong: %+v", r.Spans)
	}
	if r.Status != 200 || r.TotalNS < 0 || !validTraceID(r.ID) {
		t.Fatalf("record fields wrong: %+v", r)
	}
	if tr.Sampled() != 6 {
		t.Fatalf("Sampled() = %d, want 6", tr.Sampled())
	}
	// Records marshal as the JSON served by /debug/traces.
	if _, err := json.Marshal(recs); err != nil {
		t.Fatalf("records not marshalable: %v", err)
	}
}

func TestLateSpansDroppedAfterFinish(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	h := tr.Start("plan", "", "")
	tm := h.Begin(StageGateWait)
	h.Finish(200, "")
	tm.End("admitted") // abandoned flight completing late
	recs := tr.Traces()
	if len(recs) != 1 || len(recs[0].Spans) != 0 {
		t.Fatalf("late span leaked into retired record: %+v", recs)
	}
	// Finish is idempotent.
	h.Finish(500, "changed")
	if recs := tr.Traces(); len(recs) != 1 || recs[0].Status != 200 {
		t.Fatalf("double Finish re-pushed: %+v", recs)
	}
}

func TestMaxSpansCap(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	h := tr.Start("plan", "", "")
	for i := 0; i < maxSpans+7; i++ {
		h.Begin(StageCacheLookup).End("hit")
	}
	h.Finish(200, "")
	if recs := tr.Traces(); len(recs[0].Spans) != maxSpans {
		t.Fatalf("span cap not enforced: %d spans, want %d", len(recs[0].Spans), maxSpans)
	}
}

func TestSlowLog(t *testing.T) {
	var buf strings.Builder
	tr := New(Config{
		SampleEvery:   1,
		SlowThreshold: time.Nanosecond,
		Log:           log.New(&buf, "", 0),
	})
	h := tr.Start("plan", "", "")
	h.Begin(StageColdCompute).End("ok")
	time.Sleep(time.Millisecond)
	h.Finish(200, "")
	if tr.Slow() != 1 {
		t.Fatalf("Slow() = %d", tr.Slow())
	}
	line := buf.String()
	if !strings.Contains(line, "slow request trace="+h.ID()) ||
		!strings.Contains(line, "endpoint=plan") ||
		!strings.Contains(line, "cold_compute:ok=") {
		t.Fatalf("slow log line wrong: %q", line)
	}
	if recs := tr.Traces(); !recs[0].Slow {
		t.Fatal("record not flagged slow")
	}
}

func TestServerTiming(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	h := tr.Start("plan", "", "")
	h.Begin(StageDecode).End("")
	h.Begin(StageCacheLookup).End("hit")
	st := h.ServerTiming()
	if !strings.HasPrefix(st, "app;dur=") {
		t.Fatalf("Server-Timing missing app entry: %q", st)
	}
	for _, part := range []string{", decode;dur=", ", cache_lookup;dur="} {
		if !strings.Contains(st, part) {
			t.Fatalf("Server-Timing missing %q: %q", part, st)
		}
	}
	h.Finish(200, "")
}

func TestStageHistogramFeedsOnRecord(t *testing.T) {
	tr := New(Config{SampleEvery: 1})
	h := tr.Start("plan", "", "")
	h.Begin(StageColdCompute).End("ok")
	h.Finish(200, "")
	snap := tr.StageHistogram(StageColdCompute).Snapshot()
	if snap.Count != 1 {
		t.Fatalf("stage histogram count = %d", snap.Count)
	}
	if tr.StageHistogram(StageCount) != nil {
		t.Fatal("out-of-range stage returned a histogram")
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(500)            // ≤ 1µs bucket
	h.Observe(1_000)          // boundary: still first bucket
	h.Observe(3_000)          // 5µs bucket
	h.Observe(20_000_000_000) // above last bound: +Inf
	s := h.Snapshot()
	if s.Cumulative[0] != 2 {
		t.Fatalf("first bucket = %d, want 2", s.Cumulative[0])
	}
	if s.Cumulative[2] != 3 { // ≤5µs
		t.Fatalf("5µs bucket cumulative = %d, want 3", s.Cumulative[2])
	}
	if s.Cumulative[NumBuckets-1] != 3 {
		t.Fatalf("last finite bucket = %d, want 3", s.Cumulative[NumBuckets-1])
	}
	if s.Count != 4 {
		t.Fatalf("count = %d, want 4", s.Count)
	}
	if s.SumNS != 500+1_000+3_000+20_000_000_000 {
		t.Fatalf("sum = %d", s.SumNS)
	}
	for i := 1; i < NumBuckets; i++ {
		if s.Cumulative[i] < s.Cumulative[i-1] {
			t.Fatalf("cumulative counts decrease at %d", i)
		}
	}
}

func TestConcurrentRecordAndRead(t *testing.T) {
	tr := New(Config{SampleEvery: 1, Ring: 64})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				h := tr.Start("plan", "", "")
				tm := h.Begin(StageCacheLookup)
				tm.End("hit")
				h.Finish(200, "")
			}
		}()
	}
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, r := range tr.Traces() {
				if r.ID == "" {
					t.Error("reader saw a record without an ID")
					return
				}
			}
			tr.StageHistogram(StageCacheLookup).Snapshot()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		// A shared trace raced by recorder goroutines, as the cold-plan
		// flight does.
		h := tr.Start("plan", "f0f0f0f0f0f0f0f0", "")
		var inner sync.WaitGroup
		for g := 0; g < 4; g++ {
			inner.Add(1)
			go func() {
				defer inner.Done()
				for i := 0; i < 200; i++ {
					h.Begin(StageGateWait).End("admitted")
					h.ServerTiming()
				}
			}()
		}
		inner.Wait()
		h.Finish(200, "")
	}()
	wg.Wait()
	close(stop)
	<-readerDone
	if got := tr.Sampled(); got != 4*500+1 {
		t.Fatalf("Sampled() = %d, want %d", got, 4*500+1)
	}
}

func TestTraceIDFormat(t *testing.T) {
	id := formatTraceID(0xDEADBEEF01234567)
	if id != "deadbeef01234567" || !validTraceID(id) {
		t.Fatalf("formatTraceID: %q", id)
	}
	if !validTraceID(formatTraceID(0)) {
		t.Fatal("zero-padded ID invalid")
	}
}
