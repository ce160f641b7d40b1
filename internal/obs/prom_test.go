package obs

import (
	"errors"
	"strings"
	"testing"

	"respat/internal/promlint"
)

func TestPromWriterGolden(t *testing.T) {
	var b strings.Builder
	p := NewPromWriter(&b)
	p.Counter("respat_requests_total", "Requests served.", 12345)
	p.Gauge("respat_inflight", "In-flight requests.", 3)
	p.Family("respat_endpoint_requests_total", "Per-endpoint requests.", "counter")
	p.Sample("respat_endpoint_requests_total", []Label{{"endpoint", "plan"}}, 7)
	p.Sample("respat_endpoint_requests_total", []Label{{"endpoint", "plan_exact"}}, 2)
	p.Gauge("respat_fraction", "A non-integral value.", 0.25)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	want := `# HELP respat_requests_total Requests served.
# TYPE respat_requests_total counter
respat_requests_total 12345
# HELP respat_inflight In-flight requests.
# TYPE respat_inflight gauge
respat_inflight 3
# HELP respat_endpoint_requests_total Per-endpoint requests.
# TYPE respat_endpoint_requests_total counter
respat_endpoint_requests_total{endpoint="plan"} 7
respat_endpoint_requests_total{endpoint="plan_exact"} 2
# HELP respat_fraction A non-integral value.
# TYPE respat_fraction gauge
respat_fraction 0.25
`
	if got := b.String(); got != want {
		t.Fatalf("golden mismatch:\n got:\n%s\nwant:\n%s", got, want)
	}
	if errs := promlint.Lint([]byte(b.String())); errs != nil {
		t.Fatalf("golden output does not lint: %v", errs)
	}
}

func TestPromWriterEscaping(t *testing.T) {
	var b strings.Builder
	p := NewPromWriter(&b)
	p.Family("respat_x", "help with \\ backslash\nand newline", "gauge")
	p.Sample("respat_x", []Label{{"k", "quote \" slash \\ nl \n end"}}, 1)
	out := b.String()
	if !strings.Contains(out, `help with \\ backslash\nand newline`) {
		t.Fatalf("HELP not escaped: %q", out)
	}
	if !strings.Contains(out, `k="quote \" slash \\ nl \n end"`) {
		t.Fatalf("label not escaped: %q", out)
	}
	if errs := promlint.Lint([]byte(out)); errs != nil {
		t.Fatalf("escaped output does not lint: %v", errs)
	}
}

func TestPromWriterHist(t *testing.T) {
	var h Histogram
	h.Observe(500)            // bucket 0 (≤1µs)
	h.Observe(900_000)        // ≤1ms
	h.Observe(30_000_000_000) // +Inf
	var b strings.Builder
	p := NewPromWriter(&b)
	p.Family("respat_stage_seconds", "Stage latency.", "histogram")
	p.Hist("respat_stage_seconds", []Label{{"stage", "decode"}}, h.Snapshot())
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`respat_stage_seconds_bucket{stage="decode",le="0.000001"} 1`,
		`respat_stage_seconds_bucket{stage="decode",le="0.001"} 2`,
		`respat_stage_seconds_bucket{stage="decode",le="10"} 2`,
		`respat_stage_seconds_bucket{stage="decode",le="+Inf"} 3`,
		`respat_stage_seconds_count{stage="decode"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
	// _sum is in seconds: 500ns + 0.9ms + 30s.
	if !strings.Contains(out, `respat_stage_seconds_sum{stage="decode"} 30.0009005`) {
		t.Fatalf("sum wrong in:\n%s", out)
	}
	if errs := promlint.Lint([]byte(out)); errs != nil {
		t.Fatalf("histogram output does not lint: %v", errs)
	}
}

func TestPromWriterStickyError(t *testing.T) {
	p := NewPromWriter(failWriter{})
	p.Counter("respat_x_total", "x", 1)
	if p.Err() == nil {
		t.Fatal("write error not surfaced")
	}
	p.Gauge("respat_y", "y", 2) // must not panic, error stays
	if p.Err() == nil {
		t.Fatal("error not sticky")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("boom") }

func TestLintCatchesBadExpositions(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // substring of some error
	}{
		{"clean", "# HELP a_total ok\n# TYPE a_total counter\na_total 1\n", ""},
		{"counter suffix", "# HELP a ok\n# TYPE a counter\na 1\n", "should end in _total"},
		{"duplicate series", "# HELP a ok\n# TYPE a gauge\na{x=\"1\"} 1\na{x=\"1\"} 2\n", "duplicate series"},
		{"duplicate series reordered labels", "# HELP a ok\n# TYPE a gauge\na{x=\"1\",y=\"2\"} 1\na{y=\"2\",x=\"1\"} 2\n", "duplicate series"},
		{"interleaved families", "# HELP a ok\n# TYPE a gauge\na 1\n# HELP b ok\n# TYPE b gauge\nb 1\na{x=\"2\"} 2\n", "contiguous"},
		{"second help", "# HELP a ok\n# HELP a again\n# TYPE a gauge\na 1\n", "second HELP"},
		{"type after samples", "# HELP a ok\n# TYPE a gauge\na 1\n", ""},
		{"unknown type", "# HELP a ok\n# TYPE a widget\na 1\n", "unknown TYPE"},
		{"no type", "# HELP a ok\na 1\n", "before any TYPE"},
		{"no help", "# TYPE a gauge\na 1\n", "no HELP"},
		{"bad value", "# HELP a ok\n# TYPE a gauge\na pizza\n", "unparseable value"},
		{"bad metric name", "# HELP a ok\n# TYPE a gauge\n0a 1\n", "invalid metric name"},
		{"bad label name", "# HELP a ok\n# TYPE a gauge\na{__x=\"1\"} 1\n", "invalid label name"},
		{"unterminated labels", "# HELP a ok\n# TYPE a gauge\na{x=\"1\" 1\n", "unterminated"},
		{
			"non-cumulative histogram",
			"# HELP h ok\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
			"not cumulative",
		},
		{
			"missing +Inf",
			"# HELP h ok\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n",
			"missing +Inf",
		},
		{
			"inf != count",
			"# HELP h ok\n# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 7\n",
			"!= _count",
		},
		{
			"missing sum",
			"# HELP h ok\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_count 5\n",
			"missing _sum",
		},
		{
			"clean histogram two series",
			"# HELP h ok\n# TYPE h histogram\n" +
				"h_bucket{s=\"a\",le=\"1\"} 2\nh_bucket{s=\"a\",le=\"+Inf\"} 3\nh_sum{s=\"a\"} 1\nh_count{s=\"a\"} 3\n" +
				"h_bucket{s=\"b\",le=\"1\"} 0\nh_bucket{s=\"b\",le=\"+Inf\"} 1\nh_sum{s=\"b\"} 1\nh_count{s=\"b\"} 1\n",
			"",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			errs := promlint.Lint([]byte(tc.in))
			if tc.want == "" {
				if errs != nil {
					t.Fatalf("clean input flagged: %v", errs)
				}
				return
			}
			for _, e := range errs {
				if strings.Contains(e.Error(), tc.want) {
					return
				}
			}
			t.Fatalf("no error containing %q in %v", tc.want, errs)
		})
	}
}
