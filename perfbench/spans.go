package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// span is one timed interval the benchmark recorded around a call into
// a layer. Spans of one request share its trace ID; the response's
// Server-Timing header, when there was one, rides on the span that
// carried the response, so the server's stages join the client's and
// the transport's spans on one ID.
type span struct {
	Trace        string `json:"trace,omitempty"`
	Name         string `json:"name"`
	Parent       string `json:"parent,omitempty"`
	StartNS      int64  `json:"start_ns"`
	EndNS        int64  `json:"end_ns"`
	ServerTiming string `json:"server_timing,omitempty"`
}

func (s span) durNS() int64 { return s.EndNS - s.StartNS }

// spanLog keeps one goroutine's spans in memory; a run writes all logs
// out when it ends. Timestamps are offsets from the run's epoch; parent
// names the client span in progress, the parent of any hop it causes.
type spanLog struct {
	epoch  time.Time
	parent string
	spans  []span
}

func (l *spanLog) add(trace, name, parent string, start, end time.Time, serverTiming string) {
	l.spans = append(l.spans, span{
		Trace:        trace,
		Name:         name,
		Parent:       parent,
		StartNS:      start.Sub(l.epoch).Nanoseconds(),
		EndNS:        end.Sub(l.epoch).Nanoseconds(),
		ServerTiming: serverTiming,
	})
}

type spanLogKey struct{}

// withSpanLog attaches a goroutine's span log to a request context. The
// service derives its peer-forward requests from the incoming request's
// context, so the transport finds the client's log on the forwarded
// request too.
func withSpanLog(ctx context.Context, l *spanLog) context.Context {
	return context.WithValue(ctx, spanLogKey{}, l)
}

func spanLogFrom(ctx context.Context) *spanLog {
	l, _ := ctx.Value(spanLogKey{}).(*spanLog)
	return l
}

// writeSpans writes every span as one JSON line to dir/name.jsonl.
func writeSpans(dir, name string, logs ...*spanLog) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, l := range logs {
		for _, s := range l.spans {
			if err := enc.Encode(s); err != nil {
				return "", err
			}
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

// stage is one parsed Server-Timing entry.
type stage struct {
	name string
	ms   float64
}

// parseServerTiming decodes a Server-Timing header of comma-separated
// `name;dur=<ms>` entries, as respatd emits them. Entries without a
// valid non-negative dur are skipped.
func parseServerTiming(h string) []stage {
	var out []stage
	for _, entry := range strings.Split(h, ",") {
		name, params, ok := strings.Cut(strings.TrimSpace(entry), ";")
		if !ok || name == "" {
			continue
		}
		for _, p := range strings.Split(params, ";") {
			k, v, ok := strings.Cut(strings.TrimSpace(p), "=")
			if !ok || k != "dur" {
				continue
			}
			if ms, err := strconv.ParseFloat(v, 64); err == nil && ms >= 0 {
				out = append(out, stage{name: name, ms: ms})
			}
			break
		}
	}
	return out
}

// appMS returns the `app` entry of a parsed header: the replica's total
// in-handler time when it set the header.
func appMS(stages []stage) (float64, bool) {
	for _, s := range stages {
		if s.name == "app" {
			return s.ms, true
		}
	}
	return 0, false
}

// unattributedMS is the part of a header's `app` time that no named
// stage covers: app minus the sum of the other entries.
func unattributedMS(stages []stage) (float64, bool) {
	app, ok := appMS(stages)
	if !ok {
		return 0, false
	}
	rest := app
	for _, s := range stages {
		if s.name != "app" {
			rest -= s.ms
		}
	}
	return rest, true
}

// selfNS is a span's self time: its duration minus the part a child's
// reported time covers (here, the server's `app` time inside a client
// request or a transport hop).
func selfNS(s span, childMS float64) float64 {
	return float64(s.durNS()) - childMS*1e6
}

// stageStats accumulates Server-Timing entries by stage name.
type stageStats struct {
	sum   map[string]float64 // ms
	count map[string]int
}

func newStageStats() *stageStats {
	return &stageStats{sum: make(map[string]float64), count: make(map[string]int)}
}

func (a *stageStats) add(stages []stage) {
	for _, s := range stages {
		a.sum[s.name] += s.ms
		a.count[s.name]++
	}
}

// meanMS is the mean duration of one entry of the named stage.
func (a *stageStats) meanMS(name string) float64 {
	return ratio(a.sum[name], float64(a.count[name]))
}
