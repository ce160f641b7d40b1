// Package promlint checks Prometheus text expositions for the tests of
// the packages that write them (obs, service). It is test support: no
// production package imports it.
package promlint

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// label is one parsed name="value" pair.
type label struct{ Key, Value string }

// Lint checks a Prometheus text exposition (version 0.0.4) the way
// `promtool check metrics` would — self-written, no dependency — and
// returns every problem found (nil when clean). Checks:
//
//   - line syntax: `# HELP`/`# TYPE` comments and `name{labels} value`
//     samples; metric and label names match the Prometheus grammar;
//     values parse as floats; label values are well-quoted.
//   - family structure: at most one HELP and one TYPE per family, both
//     before its first sample; a family's samples are contiguous (no
//     interleaving); TYPE is a known type; no duplicate series (same
//     name and label set).
//   - conventions: counter families end in _total; histogram families
//     expose _bucket/_sum/_count, every _bucket series carries le, the
//     le bounds include +Inf, and cumulative bucket counts are
//     non-decreasing with the +Inf bucket equal to _count.
func Lint(data []byte) []error {
	var errs []error
	fail := func(line int, format string, args ...any) {
		errs = append(errs, fmt.Errorf("line %d: %s", line, fmt.Sprintf(format, args...)))
	}

	type family struct {
		help, typ string
		samples   int
		closed    bool // a later family started; more samples are interleaving
	}
	families := make(map[string]*family)
	order := []string{}
	series := make(map[string]int)          // name{sorted labels} -> line
	buckets := make(map[string][]bucketObs) // histogram series (sans le) -> bucket observations
	histSum := make(map[string]bool)        // histogram series with a _sum
	histCount := make(map[string]float64)   // histogram series _count values
	current := ""                           // family of the last sample/header
	base := func(name string) string {      // histogram sample name -> family name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			b := strings.TrimSuffix(name, suf)
			if b != name {
				if f, ok := families[b]; ok && f.typ == "histogram" {
					return b
				}
			}
		}
		return name
	}
	get := func(name string) *family {
		f, ok := families[name]
		if !ok {
			f = &family{}
			families[name] = f
			order = append(order, name)
		}
		return f
	}
	enter := func(name string, line int) *family {
		f := get(name)
		if name != current {
			if f.samples > 0 || f.closed {
				fail(line, "family %s reappears after other families; samples must be contiguous", name)
			}
			if cur, ok := families[current]; ok {
				cur.closed = true
			}
			current = name
		}
		return f
	}

	lines := strings.Split(string(data), "\n")
	for i, raw := range lines {
		line := i + 1
		if raw == "" {
			continue
		}
		if strings.HasPrefix(raw, "#") {
			kind, name, rest, ok := parseComment(raw)
			if !ok {
				continue // free comment, allowed
			}
			if !validMetricName(name) {
				fail(line, "invalid metric name %q in %s", name, kind)
				continue
			}
			f := enter(name, line)
			switch kind {
			case "HELP":
				if f.help != "" {
					fail(line, "second HELP for %s", name)
				}
				if rest == "" {
					fail(line, "empty HELP for %s", name)
				}
				f.help = rest
			case "TYPE":
				if f.typ != "" {
					fail(line, "second TYPE for %s", name)
				}
				if f.samples > 0 {
					fail(line, "TYPE for %s after its samples", name)
				}
				switch rest {
				case "counter", "gauge", "histogram", "summary", "untyped":
					f.typ = rest
				default:
					fail(line, "unknown TYPE %q for %s", rest, name)
				}
				if rest == "counter" && !strings.HasSuffix(name, "_total") {
					fail(line, "counter %s should end in _total", name)
				}
			}
			continue
		}
		name, labels, value, err := parseSample(raw)
		if err != nil {
			fail(line, "%v", err)
			continue
		}
		famName := base(name)
		f := enter(famName, line)
		f.samples++
		if f.typ == "" {
			fail(line, "sample for %s before any TYPE", famName)
		}
		id := seriesID(name, labels)
		if prev, dup := series[id]; dup {
			fail(line, "duplicate series %s (first at line %d)", id, prev)
		}
		series[id] = line
		if f.typ == "histogram" {
			key := seriesID(famName, withoutLE(labels))
			switch {
			case strings.HasSuffix(name, "_bucket"):
				le, ok := labelValue(labels, "le")
				if !ok {
					fail(line, "histogram bucket %s without le label", id)
					continue
				}
				bound := math.Inf(1)
				if le != "+Inf" {
					if bound, err = strconv.ParseFloat(le, 64); err != nil {
						fail(line, "unparseable le %q on %s", le, id)
						continue
					}
				}
				buckets[key] = append(buckets[key], bucketObs{bound, value, line})
			case strings.HasSuffix(name, "_sum"):
				histSum[key] = true
			case strings.HasSuffix(name, "_count"):
				histCount[key] = value
			default:
				fail(line, "histogram family %s has non-histogram sample %s", famName, name)
			}
		}
	}

	// Histogram shape checks per series.
	keys := make([]string, 0, len(buckets))
	for k := range buckets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		obs := buckets[key]
		sort.Slice(obs, func(a, b int) bool { return obs[a].bound < obs[b].bound })
		hasInf := false
		for j := range obs {
			if math.IsInf(obs[j].bound, 1) {
				hasInf = true
			}
			if j > 0 && obs[j].count < obs[j-1].count {
				fail(obs[j].line, "histogram %s buckets not cumulative: le=%g count %g < %g",
					key, obs[j].bound, obs[j].count, obs[j-1].count)
			}
		}
		if !hasInf {
			fail(obs[len(obs)-1].line, "histogram %s missing +Inf bucket", key)
		}
		count, ok := histCount[key]
		if !ok {
			fail(obs[len(obs)-1].line, "histogram %s missing _count", key)
		} else if hasInf && obs[len(obs)-1].count != count {
			fail(obs[len(obs)-1].line, "histogram %s +Inf bucket %g != _count %g",
				key, obs[len(obs)-1].count, count)
		}
		if !histSum[key] {
			fail(obs[len(obs)-1].line, "histogram %s missing _sum", key)
		}
	}
	// Families with a TYPE but no samples, or samples but no HELP.
	for _, name := range order {
		f := families[name]
		if f.typ != "" && f.samples == 0 && f.typ != "histogram" {
			errs = append(errs, fmt.Errorf("family %s has TYPE but no samples", name))
		}
		if f.samples > 0 && f.help == "" {
			errs = append(errs, fmt.Errorf("family %s has samples but no HELP", name))
		}
	}
	return errs
}

type bucketObs struct {
	bound float64
	count float64
	line  int
}

// parseComment splits `# HELP name text` / `# TYPE name type`.
func parseComment(raw string) (kind, name, rest string, ok bool) {
	s := strings.TrimPrefix(raw, "#")
	s = strings.TrimLeft(s, " ")
	for _, k := range []string{"HELP", "TYPE"} {
		if strings.HasPrefix(s, k+" ") {
			s = strings.TrimPrefix(s, k+" ")
			name, rest, _ := strings.Cut(s, " ")
			return k, name, rest, true
		}
	}
	return "", "", "", false
}

// parseSample splits `name{k="v",...} value` (no timestamp support:
// the exposition here never emits one).
func parseSample(raw string) (name string, labels []label, value float64, err error) {
	rest := raw
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return "", nil, 0, fmt.Errorf("malformed sample %q", raw)
	} else {
		name, rest = rest[:i], rest[i:]
	}
	if !validMetricName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	if strings.HasPrefix(rest, "{") {
		end := findLabelsEnd(rest)
		if end < 0 {
			return "", nil, 0, fmt.Errorf("unterminated labels in %q", raw)
		}
		labels, err = parseLabels(rest[1:end])
		if err != nil {
			return "", nil, 0, err
		}
		rest = rest[end+1:]
	}
	rest = strings.TrimLeft(rest, " ")
	if rest == "" {
		return "", nil, 0, fmt.Errorf("sample %q has no value", raw)
	}
	value, err = strconv.ParseFloat(rest, 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("unparseable value %q: %v", rest, err)
	}
	return name, labels, value, nil
}

// findLabelsEnd locates the closing brace of a label block, honouring
// quotes and escapes.
func findLabelsEnd(s string) int {
	inQuote := false
	for i := 1; i < len(s); i++ {
		switch {
		case inQuote && s[i] == '\\':
			i++ // skip escaped char
		case s[i] == '"':
			inQuote = !inQuote
		case !inQuote && s[i] == '}':
			return i
		}
	}
	return -1
}

// parseLabels parses `k="v",k2="v2"`.
func parseLabels(s string) ([]label, error) {
	var out []label
	for len(s) > 0 {
		eq := strings.Index(s, "=")
		if eq < 0 {
			return nil, fmt.Errorf("malformed label in %q", s)
		}
		key := s[:eq]
		if !validLabelName(key) {
			return nil, fmt.Errorf("invalid label name %q", key)
		}
		s = s[eq+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, fmt.Errorf("unquoted label value for %q", key)
		}
		s = s[1:]
		var val strings.Builder
		i := 0
		for ; i < len(s); i++ {
			if s[i] == '\\' && i+1 < len(s) {
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, fmt.Errorf("bad escape \\%c in label %q", s[i+1], key)
				}
				i++
				continue
			}
			if s[i] == '"' {
				break
			}
			val.WriteByte(s[i])
		}
		if i >= len(s) {
			return nil, fmt.Errorf("unterminated label value for %q", key)
		}
		out = append(out, label{key, val.String()})
		s = s[i+1:]
		s = strings.TrimPrefix(s, ",")
	}
	return out, nil
}

// seriesID renders a canonical series identity: name plus sorted
// labels.
func seriesID(name string, labels []label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]label(nil), labels...)
	sort.Slice(ls, func(a, b int) bool { return ls[a].Key < ls[b].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

func withoutLE(labels []label) []label {
	out := make([]label, 0, len(labels))
	for _, l := range labels {
		if l.Key != "le" {
			out = append(out, l)
		}
	}
	return out
}

func labelValue(labels []label, key string) (string, bool) {
	for _, l := range labels {
		if l.Key == key {
			return l.Value, true
		}
	}
	return "", false
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
