package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runSmall(t *testing.T, trace, format string) string {
	t.Helper()
	var buf bytes.Buffer
	err := run(&buf, "Hera", 16, "pattern", "PDMV", 3, 0.001,
		50, 36000, 2, 0, trace, true, 5, 0, format)
	if err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestRunTable(t *testing.T) {
	out := runSmall(t, "", "table")
	for _, want := range []string{"fleet", "utilization", "overhead", "pattern"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestRunJSON(t *testing.T) {
	out := runSmall(t, "", "json")
	var doc map[string]any
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out)
	}
	if doc["jobs"] != float64(50) {
		t.Errorf("jobs = %v, want 50", doc["jobs"])
	}
	if !strings.HasSuffix(out, "\n") {
		t.Error("JSON report does not end in a newline")
	}
}

func TestRunTraceFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.txt")
	if err := os.WriteFile(path, []byte("0 30000 4\n600 30000 4 twolevel\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := runSmall(t, path, "json")
	var doc struct {
		Jobs  int `json:"jobs"`
		Plans []struct {
			Mode string `json:"mode"`
		} `json:"plans"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Jobs != 2 || len(doc.Plans) != 2 {
		t.Fatalf("jobs = %d, plans = %+v; want 2 jobs across 2 plans", doc.Jobs, doc.Plans)
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	for name, call := range map[string]func() error{
		"bad platform": func() error {
			return run(&buf, "Nope", 16, "pattern", "PDMV", 3, 1, 10, 100, 1, 0, "", true, 1, 0, "table")
		},
		"bad mode": func() error {
			return run(&buf, "Hera", 16, "daly", "PDMV", 3, 1, 10, 100, 1, 0, "", true, 1, 0, "table")
		},
		"bad family": func() error {
			return run(&buf, "Hera", 16, "pattern", "NOPE", 3, 1, 10, 100, 1, 0, "", true, 1, 0, "table")
		},
		"bad format": func() error {
			return run(&buf, "Hera", 16, "pattern", "PDMV", 3, 1, 10, 100, 1, 0, "", true, 1, 0, "yaml")
		},
		"missing trace": func() error {
			return run(&buf, "Hera", 16, "pattern", "PDMV", 3, 1, 10, 100, 1, 0, "/does/not/exist", true, 1, 0, "table")
		},
		"bad config": func() error {
			return run(&buf, "Hera", 16, "pattern", "PDMV", 3, -1, 10, 100, 1, 0, "", true, 1, 0, "table")
		},
	} {
		if err := call(); err == nil {
			t.Errorf("%s: run succeeded", name)
		}
	}
}

// TestRunTraceErrors: a bad two-line trace fails run with an error
// that main prints with one "fleet:" prefix and that names the job at
// fault by its trace line: for a field the parser rejects, for a job no
// cluster could run, and for a job too wide for this cluster, which
// only the fleet run can check and which a comment line sets apart
// from its position.
func TestRunTraceErrors(t *testing.T) {
	for name, tc := range map[string]struct{ trace, want string }{
		"NaN work":      {"0 30000 4\n600 NaN 4\n", "trace line 2: work"},
		"negative work": {"0 30000 4\n600 -5 4\n", "trace line 2: job work = -5"},
		"too wide":      {"# arrival work nodes\n0 30000 4\n600 30000 64\n", "trace line 3: job needs 64 nodes, cluster has 16"},
	} {
		path := filepath.Join(t.TempDir(), "trace.txt")
		if err := os.WriteFile(path, []byte(tc.trace), 0o644); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		err := run(&buf, "Hera", 16, "pattern", "PDMV", 3, 0.001,
			50, 36000, 2, 0, path, true, 5, 0, "json")
		if err == nil {
			t.Fatalf("%s: run accepted %q", name, tc.trace)
		}
		msg := errorLine(err)
		if !strings.HasPrefix(msg, "fleet: ") || strings.Count(msg, "fleet:") != 1 || !strings.Contains(msg, tc.want) {
			t.Errorf("%s: printed %q, want one \"fleet:\" prefix and %q", name, msg, tc.want)
		}
	}
}
