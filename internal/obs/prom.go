package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// Label is one Prometheus label pair.
type Label struct{ Key, Value string }

// PromWriter renders the Prometheus text exposition format (version
// 0.0.4) by hand — no client library. The caller emits one Family
// header per metric name followed by that family's samples; emission
// order is code order, which is what makes the output stable enough
// to golden-test. Errors are sticky and surfaced by Err: after a write
// error or a family without help text, nothing more is written.
type PromWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, buf: make([]byte, 0, 256)}
}

// Err returns the first error: a write error, or a family given no
// help text.
func (p *PromWriter) Err() error { return p.err }

// flush writes the line buffer.
func (p *PromWriter) flush() {
	if p.err != nil {
		p.buf = p.buf[:0]
		return
	}
	_, p.err = p.w.Write(p.buf)
	p.buf = p.buf[:0]
}

// Family emits the # HELP and # TYPE header of one metric family.
// typ is "counter", "gauge" or "histogram". The exposition format
// requires every family to document itself, so an empty help is an
// error: Family records it for Err and writes nothing, neither this
// family nor any after it.
func (p *PromWriter) Family(name, help, typ string) {
	if help == "" && p.err == nil {
		p.err = fmt.Errorf("obs: metric family %s has no help text", name)
		return
	}
	p.buf = append(p.buf, "# HELP "...)
	p.buf = append(p.buf, name...)
	p.buf = append(p.buf, ' ')
	p.buf = appendEscapedHelp(p.buf, help)
	p.buf = append(p.buf, "\n# TYPE "...)
	p.buf = append(p.buf, name...)
	p.buf = append(p.buf, ' ')
	p.buf = append(p.buf, typ...)
	p.buf = append(p.buf, '\n')
	p.flush()
}

// Sample emits one sample line of the current family. name must match
// the family name (histogram families use the _bucket/_sum/_count
// suffixes through Hist instead).
func (p *PromWriter) Sample(name string, labels []Label, value float64) {
	p.buf = appendSample(p.buf, name, labels, value)
	p.flush()
}

// Counter emits a complete single-sample counter family.
func (p *PromWriter) Counter(name, help string, value float64) {
	p.Family(name, help, "counter")
	p.Sample(name, nil, value)
}

// Gauge emits a complete single-sample gauge family.
func (p *PromWriter) Gauge(name, help string, value float64) {
	p.Family(name, help, "gauge")
	p.Sample(name, nil, value)
}

// Hist emits one histogram series of the current family: cumulative
// _bucket lines for every bound plus +Inf, then _sum (in seconds, the
// Prometheus base unit) and _count. labels are the series labels; the
// le label is appended after them.
func (p *PromWriter) Hist(name string, labels []Label, snap HistSnapshot) {
	le := make([]Label, len(labels)+1)
	copy(le, labels)
	for i := 0; i < NumBuckets; i++ {
		le[len(labels)] = Label{"le", formatSeconds(BucketBoundsNS[i])}
		p.buf = appendSample(p.buf, name+"_bucket", le, float64(snap.Cumulative[i]))
	}
	le[len(labels)] = Label{"le", "+Inf"}
	p.buf = appendSample(p.buf, name+"_bucket", le, float64(snap.Count))
	p.buf = appendSample(p.buf, name+"_sum", labels, float64(snap.SumNS)/1e9)
	p.buf = appendSample(p.buf, name+"_count", labels, float64(snap.Count))
	p.flush()
}

// appendSample renders `name{labels} value\n`.
func appendSample(buf []byte, name string, labels []Label, value float64) []byte {
	buf = append(buf, name...)
	if len(labels) > 0 {
		buf = append(buf, '{')
		for i, l := range labels {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = append(buf, l.Key...)
			buf = append(buf, `="`...)
			buf = appendEscapedLabel(buf, l.Value)
			buf = append(buf, '"')
		}
		buf = append(buf, '}')
	}
	buf = append(buf, ' ')
	buf = appendValue(buf, value)
	buf = append(buf, '\n')
	return buf
}

// appendValue renders a sample value: integral values print without an
// exponent or decimal point (counters read naturally), everything else
// as shortest round-trip float.
func appendValue(buf []byte, v float64) []byte {
	if v == float64(int64(v)) && v >= -1e15 && v <= 1e15 {
		return strconv.AppendInt(buf, int64(v), 10)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// formatSeconds renders a nanosecond bound as seconds for the le
// label, trimming trailing zeros so 2_500_000ns prints "0.0025".
func formatSeconds(ns int64) string {
	s := strconv.FormatFloat(float64(ns)/1e9, 'f', 9, 64)
	s = strings.TrimRight(s, "0")
	return strings.TrimSuffix(s, ".")
}

// appendEscapedHelp escapes a HELP string: backslash and newline.
func appendEscapedHelp(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			buf = append(buf, `\\`...)
		case '\n':
			buf = append(buf, `\n`...)
		default:
			buf = append(buf, s[i])
		}
	}
	return buf
}

// appendEscapedLabel escapes a label value: backslash, quote, newline.
func appendEscapedLabel(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			buf = append(buf, `\\`...)
		case '"':
			buf = append(buf, `\"`...)
		case '\n':
			buf = append(buf, `\n`...)
		default:
			buf = append(buf, s[i])
		}
	}
	return buf
}
