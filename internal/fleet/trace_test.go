package fleet

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
)

func TestParseTrace(t *testing.T) {
	in := `
# arrival  work  nodes  mode
0       360000            # 1-node pattern job (defaults)
1800    360000  16        # 16-node job, default mode
3600    720000  64  multilevel
3600    360000  8   twolevel  # equal arrivals are fine
`
	jobs, err := ParseTrace(strings.NewReader(in), ModePattern)
	if err != nil {
		t.Fatal(err)
	}
	want := []Job{
		{Arrival: 0, Work: 360000, Nodes: 1, Mode: ModePattern, line: 3},
		{Arrival: 1800, Work: 360000, Nodes: 16, Mode: ModePattern, line: 4},
		{Arrival: 3600, Work: 720000, Nodes: 64, Mode: ModeMultilevel, line: 5},
		{Arrival: 3600, Work: 360000, Nodes: 8, Mode: ModeTwoLevel, line: 6},
	}
	if len(jobs) != len(want) {
		t.Fatalf("got %d jobs, want %d", len(jobs), len(want))
	}
	for i := range want {
		if jobs[i] != want[i] {
			t.Errorf("job %d = %+v, want %+v", i, jobs[i], want[i])
		}
	}
}

func TestParseTraceErrors(t *testing.T) {
	// want is a fragment of the error: the line at fault, where there
	// is one.
	for name, tc := range map[string]struct{ in, want string }{
		"empty":       {"# nothing but comments\n", "no jobs"},
		"one field":   {"100\n", "line 1"},
		"five fields": {"0 1 1 pattern extra\n", "line 1"},
		"bad arrival": {"x 100\n", "line 1"},
		"bad work":    {"0 x\n", "line 1"},
		"bad nodes":   {"0 100 x\n", "line 1"},
		"bad mode":    {"0 100 1 daly\n", "line 1"},
		"decreasing":  {"100 1\n50 1\n", "line 2"},
		"NaN between": {"10 100\nNaN 100\n0 100\n", "line 2"},
		"+Inf work":   {"0 +Inf\n", "line 1"},
		// Jobs that fail Job.Validate on any cluster.
		"negative arrival": {"-1 100\n", "line 1"},
		"negative work":    {"0 100\n10 -5\n", "line 2"},
		"zero work":        {"0 0\n", "line 1"},
		"zero nodes":       {"# header\n0 100 0\n", "line 2"},
	} {
		_, err := ParseTrace(strings.NewReader(tc.in), ModePattern)
		if err == nil {
			t.Errorf("%s: ParseTrace accepted %q", name, tc.in)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %q", name, err, tc.want)
		} else if n := strings.Count(err.Error(), "fleet:"); n != 1 {
			t.Errorf("%s: error %q carries the package prefix %d times", name, err, n)
		}
	}
}

// FuzzParseTrace holds the job-trace parser to its schema: it never
// panics; an accepted trace's jobs pass Job.Validate on a cluster of
// any size and arrive in non-decreasing order; and the accepted jobs,
// rendered back into
// the format (shortest float form, node count, mode name), parse to
// the same jobs, bit for bit. Plain `go test` replays the seed corpus
// in testdata/fuzz/FuzzParseTrace.
func FuzzParseTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, in string) {
		jobs, err := ParseTrace(strings.NewReader(in), ModePattern)
		if err != nil {
			return
		}
		var out strings.Builder
		for i, j := range jobs {
			if err := j.Validate(math.MaxInt); err != nil {
				t.Fatalf("trace %q: job %d = %+v: %v", in, i, j, err)
			}
			if i > 0 && j.Arrival < jobs[i-1].Arrival {
				t.Fatalf("trace %q: job %d arrives at %v, before %v", in, i, j.Arrival, jobs[i-1].Arrival)
			}
			fmt.Fprintf(&out, "%s %s %d %s\n", strconv.FormatFloat(j.Arrival, 'g', -1, 64),
				strconv.FormatFloat(j.Work, 'g', -1, 64), j.Nodes, j.Mode)
		}
		again, err := ParseTrace(strings.NewReader(out.String()), ModePattern)
		if err != nil {
			t.Fatalf("trace %q rendered as %q: %v", in, out.String(), err)
		}
		if !slices.EqualFunc(jobs, again, sameJob) {
			t.Fatalf("trace %q rendered as %q parses to %+v, want %+v", in, out.String(), again, jobs)
		}
	})
}

// sameJob compares jobs with floats by their bits, so -0 stays -0.
func sameJob(a, b Job) bool {
	return math.Float64bits(a.Arrival) == math.Float64bits(b.Arrival) &&
		math.Float64bits(a.Work) == math.Float64bits(b.Work) &&
		a.Nodes == b.Nodes && a.Mode == b.Mode
}

// TestTraceDrivenRunMatchesDefaultMode checks a trace campaign runs
// end to end and that the default mode reaches jobs without one.
func TestTraceDrivenRunMatchesDefaultMode(t *testing.T) {
	jobs, err := ParseTrace(strings.NewReader("0 300000 16\n600 300000 16\n"), ModeTwoLevel)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{Platform: hera(t), Nodes: 32, Trace: jobs, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plans) != 1 || res.Plans[0].Mode != "twolevel" {
		t.Fatalf("plans = %+v, want one twolevel plan", res.Plans)
	}
}
