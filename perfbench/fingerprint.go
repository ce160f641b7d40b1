package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// formatCounts renders a fingerprint as space-separated name=value.
func formatCounts(fp []count) string {
	parts := make([]string, len(fp))
	for i, c := range fp {
		parts[i] = fmt.Sprintf("%s=%d", c.name, c.value)
	}
	return strings.Join(parts, " ")
}

// parseCounts reads formatCounts' output back.
func parseCounts(s string) (map[string]int64, error) {
	out := make(map[string]int64)
	for _, f := range strings.Fields(s) {
		name, v, ok := strings.Cut(f, "=")
		if !ok {
			return nil, fmt.Errorf("fingerprint entry %q has no value", f)
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("fingerprint entry %q: %w", f, err)
		}
		out[name] = n
	}
	return out, nil
}

// jitterTolerance is how far a jitter count may move between runs at
// one seed. Two clients interleave differently from run to run: a
// request may coalesce onto a concurrent flight or not, and may find
// its key just before or just after the other client's insert evicted
// it. zipf-tail's counts moved by 0-2 between runs at one seed; a
// determinism bug moves them by hundreds.
const jitterTolerance = 5

// fingerprintDiff lists how fp departs from a reference fingerprint:
// every count must be equal, a jitter count within jitterTolerance.
func fingerprintDiff(ref map[string]int64, fp []count) []string {
	var diffs []string
	seen := make(map[string]bool, len(fp))
	for _, c := range fp {
		seen[c.name] = true
		want, ok := ref[c.name]
		d := max(c.value-want, want-c.value)
		switch {
		case !ok:
			diffs = append(diffs, fmt.Sprintf("%s=%d is new", c.name, c.value))
		case d != 0 && !(c.jitter && d <= jitterTolerance):
			diffs = append(diffs, fmt.Sprintf("%s=%d, first run %d", c.name, c.value, want))
		}
	}
	for name := range ref {
		if !seen[name] {
			diffs = append(diffs, fmt.Sprintf("%s is missing", name))
		}
	}
	return diffs
}

// compareFingerprint compares fp with the first fingerprint recorded
// for (workload, seed) under dir, recording fp when there is none, and
// returns a one-line verdict. A mismatch is flagged as a workload
// determinism bug; it does not fail the run, whose outputs were checked.
func compareFingerprint(dir, workload string, seed uint64, fp []count) string {
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.txt", workload, seed))
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return "fingerprint not recorded: " + err.Error()
		}
		if err := os.WriteFile(path, []byte(formatCounts(fp)+"\n"), 0o644); err != nil {
			return "fingerprint not recorded: " + err.Error()
		}
		return "fingerprint recorded as the reference for this seed"
	}
	if err != nil {
		return "fingerprint not compared: " + err.Error()
	}
	ref, err := parseCounts(string(b))
	if err != nil {
		return "fingerprint not compared: " + err.Error()
	}
	if diffs := fingerprintDiff(ref, fp); len(diffs) > 0 {
		msg := "FINGERPRINT MISMATCH, a workload determinism bug: " + strings.Join(diffs, "; ")
		fmt.Fprintln(os.Stderr, "perfbench: "+msg)
		return msg
	}
	return "fingerprint matches the first run at this seed"
}
