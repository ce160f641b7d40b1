package obs

import (
	"regexp"
	"strings"
	"testing"
	"unicode/utf8"

	"respat/internal/promlint"
)

// wellFormedID is the forced trace ID grammar, stated independently of
// validTraceID.
var wellFormedID = regexp.MustCompile(`^[0-9a-f]{16}$`)

// FuzzTraceHeader holds Tracer.Start to its contract for any
// X-Respat-Trace value: with sampling off, a trace starts exactly when
// the value is 16 lowercase hex digits, and that trace's ID is the
// value. No input may panic.
func FuzzTraceHeader(f *testing.F) {
	tr := New(Config{SampleEvery: 0})
	f.Fuzz(func(t *testing.T, header string) {
		h := tr.Start("plan", header, "r1")
		if want := wellFormedID.MatchString(header); (h != nil) != want {
			t.Fatalf("header %q: trace started = %v, want %v", header, h != nil, want)
		}
		if h != nil && h.ID() != header {
			t.Fatalf("header %q: trace ID %q", header, h.ID())
		}
	})
}

// FuzzPromWriter holds PromWriter to the exposition grammar: promlint
// accepts what it writes for any sample value (NaN, ±Inf, -0, very
// large) and any valid UTF-8 label value or help text (quotes,
// backslashes, newlines, non-ASCII), and for histograms filled through
// Observe (0 to 10^12 ns) and Halve. The linter requires every family
// to document itself, so an empty help text must be refused: Err
// reports it and nothing is written.
func FuzzPromWriter(f *testing.F) {
	f.Fuzz(func(t *testing.T, value float64, label, help string, ns uint64, halves uint8) {
		if !utf8.ValidString(label) || !utf8.ValidString(help) {
			return
		}
		var h Histogram
		for i := 0; i < 8; i++ {
			h.Observe(int64((ns >> (8 * i)) % (1e12 + 1)))
			if halves&(1<<i) != 0 {
				h.Halve()
			}
		}
		var b strings.Builder
		p := NewPromWriter(&b)
		p.Counter("respat_fuzz_total", help, value)
		p.Gauge("respat_fuzz", help, value)
		p.Family("respat_fuzz_labelled", help, "gauge")
		p.Sample("respat_fuzz_labelled", []Label{{"k", label}}, value)
		p.Sample("respat_fuzz_labelled", []Label{{"k", label + "'"}}, -value)
		p.Family("respat_fuzz_seconds", help, "histogram")
		p.Hist("respat_fuzz_seconds", []Label{{"k", label}}, h.Snapshot())
		if help == "" {
			if p.Err() == nil || b.Len() != 0 {
				t.Fatalf("empty help: err %v, wrote %q", p.Err(), b.String())
			}
			return
		}
		if err := p.Err(); err != nil {
			t.Fatalf("help %q: %v", help, err)
		}
		if errs := promlint.Lint([]byte(b.String())); errs != nil {
			t.Fatalf("value %v, label %q, help %q: exposition does not lint: %v\n%s", value, label, help, errs, b.String())
		}
	})
}
