package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"respat/internal/core"
	"respat/internal/multilevel"
	"respat/internal/platform"
)

// FuzzPlanRequestDecode holds the typed plan-body decoders to the
// encoding/json oracle (decodeJSON: unknown fields and trailing bytes
// rejected). Every input goes through both decoders. A body repeating a
// member name must be rejected; on any other body the decoders and the
// oracle must agree on acceptance, accepted values must be identical to
// the bit (math.Float64bits, so -0 stays -0), and the resolved requests
// must encode the same cache key. Plain `go test` replays the seed
// corpus in testdata/fuzz/FuzzPlanRequestDecode.
func FuzzPlanRequestDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		if err := checkDecoders(raw); err != "" {
			t.Fatalf("body %q: %s", raw, err)
		}
	})
}

// TestPlanRequestDecodeMutations runs the fuzz target's check over
// seeded mutations of its seed corpus, so every `go test` explores
// beyond the committed seeds without the fuzzing engine.
func TestPlanRequestDecodeMutations(t *testing.T) {
	seeds := fuzzSeeds(t, "FuzzPlanRequestDecode")
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 50000; i++ {
		raw := mutate(rng, seeds)
		if err := checkDecoders(raw); err != "" {
			t.Fatalf("mutation %d, body %q: %s", i, raw, err)
		}
	}
}

// checkDecoders runs both typed decoders and the oracle on raw and
// describes the first disagreement, or returns "".
func checkDecoders(raw []byte) string {
	dup := hasDuplicateNames(raw)

	var want PlanRequest
	wantErr := decodeJSON(raw, &want)
	var got planBody
	gotErr := decodePlanBody(raw, &got)
	if msg := compareDecode("plan", dup, gotErr, wantErr, func() bool {
		return sameBits(reflect.ValueOf(got), reflect.ValueOf(planBodyOf(want)))
	}); msg != "" {
		return msg
	}
	if gotErr == nil {
		kind, costs, rates, err := parsePlanRequest(raw)
		wantKind, wantCosts, wantRates, wantErr := resolvePlanOracle(want)
		switch {
		case (err == nil) != (wantErr == nil):
			return "plan resolution: " + errPair(err, wantErr)
		case err == nil && EncodeKey(ModePlanExact, kind, costs, rates) != EncodeKey(ModePlanExact, wantKind, wantCosts, wantRates):
			return "plan cache keys differ"
		}
	}

	var wantML MultilevelPlanRequest
	wantErr = decodeJSON(raw, &wantML)
	var gotML multilevelBody
	gotErr = decodeMultilevelBody(raw, &gotML)
	if msg := compareDecode("multilevel", dup, gotErr, wantErr, func() bool {
		return sameBits(reflect.ValueOf(gotML), reflect.ValueOf(multilevelBodyOf(wantML)))
	}); msg != "" {
		return msg
	}
	if gotErr == nil {
		p, err := parseMultilevelRequest(raw)
		wantP, wantErr := resolveMultilevelConfig(wantML.Platform, wantML.Levels, wantML.Params)
		if wantErr == nil {
			wantErr = wantP.Validate()
		}
		switch {
		case (err == nil) != (wantErr == nil):
			return "multilevel resolution: " + errPair(err, wantErr)
		case err == nil && EncodeMultilevelKey(p) != EncodeMultilevelKey(wantP):
			return "multilevel cache keys differ"
		}
	}
	return ""
}

// compareDecode checks one decoder's outcome against the oracle's.
func compareDecode(shape string, dup bool, gotErr, wantErr error, same func() bool) string {
	switch {
	case dup:
		if gotErr == nil {
			return shape + ": repeated member name accepted"
		}
	case (gotErr == nil) != (wantErr == nil):
		return shape + ": " + errPair(gotErr, wantErr)
	case gotErr == nil && !same():
		return shape + ": decoded values differ from encoding/json's"
	}
	return ""
}

func errPair(got, want error) string {
	return fmt.Sprintf("decoder error %v, oracle error %v", got, want)
}

// resolvePlanOracle resolves an encoding/json-decoded plan request as
// the handlers did before the typed decoder.
func resolvePlanOracle(req PlanRequest) (core.Kind, core.Costs, core.Rates, error) {
	kind, err := core.ParseKind(req.Kind)
	if err != nil {
		return 0, core.Costs{}, core.Rates{}, err
	}
	costs, rates, err := resolveConfig(req.Platform, req.Costs, req.Rates)
	return kind, costs, rates, err
}

func planBodyOf(req PlanRequest) planBody {
	b := planBody{kind: req.Kind, platform: req.Platform, hasCosts: req.Costs != nil, hasRates: req.Rates != nil}
	if b.hasCosts {
		b.costs = *req.Costs
	}
	if b.hasRates {
		b.rates = *req.Rates
	}
	return b
}

func multilevelBodyOf(req MultilevelPlanRequest) multilevelBody {
	b := multilevelBody{platform: req.Platform, levels: req.Levels, hasParams: req.Params != nil}
	if b.hasParams {
		b.params = *req.Params
	}
	return b
}

// sameBits reports whether a and b hold the same value, comparing
// floats by their bits and telling nil pointers and slices from
// non-nil ones.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.String:
		return a.String() == b.String()
	case reflect.Int:
		return a.Int() == b.Int()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	panic("sameBits: unhandled kind " + a.Kind().String())
}

// hasDuplicateNames reports whether some object in raw repeats a member
// name, comparing names as encoding/json matches them to fields
// (bytes.EqualFold after unquoting). It walks encoding/json's token
// stream and stops at the first syntax error, reporting only the
// repeats before it.
func hasDuplicateNames(raw []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	type frame struct {
		object  bool
		wantKey bool
		names   []string
	}
	var stack []*frame
	valueDone := func() {
		if n := len(stack); n > 0 && stack[n-1].object {
			stack[n-1].wantKey = true
		}
	}
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		top := (*frame)(nil)
		if n := len(stack); n > 0 {
			top = stack[n-1]
		}
		switch tok := tok.(type) {
		case json.Delim:
			switch tok {
			case '{':
				stack = append(stack, &frame{object: true, wantKey: true})
			case '[':
				stack = append(stack, &frame{})
			default:
				stack = stack[:len(stack)-1]
				valueDone()
			}
		case string:
			if top != nil && top.object && top.wantKey {
				for _, n := range top.names {
					if strings.EqualFold(n, tok) {
						return true
					}
				}
				top.names = append(top.names, tok)
				top.wantKey = false
				continue
			}
			valueDone()
		default:
			valueDone()
		}
		if len(stack) == 0 {
			return false
		}
	}
}

// fuzzSeeds reads the seed corpus of the fuzz target named target:
// files in the "go test fuzz v1" format, each holding one []byte value.
func fuzzSeeds(t testing.TB, target string) [][]byte {
	dir := filepath.Join("testdata", "fuzz", target)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var seeds [][]byte
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		header, value, _ := strings.Cut(strings.TrimSpace(string(data)), "\n")
		quoted, ok := strings.CutPrefix(value, "[]byte(")
		quoted, ok2 := strings.CutSuffix(quoted, ")")
		s, err := strconv.Unquote(quoted)
		if header != "go test fuzz v1" || !ok || !ok2 || err != nil {
			t.Fatalf("%s: not a one-[]byte corpus file", e.Name())
		}
		seeds = append(seeds, []byte(s))
	}
	if len(seeds) == 0 {
		t.Fatal("empty seed corpus")
	}
	return seeds
}

// mutationTokens are spliced into mutated bodies: the structural bytes,
// literals, numbers at the edges of the grammar and of float64, names
// in other cases and spellings (U+212A KELVIN SIGN and U+017F LONG S
// fold to k and s, raw or escaped), escapes and bytes that are not
// UTF-8.
var mutationTokens = []string{
	"{", "}", "[", "]", ":", ",", `"`, `\`, " ", "\t", "\n", "\x00", "\x1f", "\x80", "\xff", "\xc3",
	"null", "true", "false", "nul", "-", "0", "-0", "1", "2", "2.0", "1e400", "1E+2", "1e-400", ".5", "01", "+1",
	"4.9e-324", "1.7976931348623157e308", "99999999999999999999",
	`"kind"`, `"KIND"`, `"Kind"`, `"platform"`, `"levels"`, `"params"`, `"costs"`, `"rates"`,
	`"Levels"`, `"Recall"`, `"RECALL"`, `"Rates"`, `"Share"`, `"Ckpt"`, `"InteriorGuaranteed"`,
	`"PD"`, `"PDMV*"`, `"Hera"`, "\"\u212aind\"", `"\u212aIND"`, "\"co\u017fts\"", `"A"`, `"\ud800"`, `"\x"`,
	`{"Ckpt":1,"Rec":2,"Share":1}`, `{"FailStop":1e-6,"Silent":2e-6}`,
}

// mutate derives a body from a random seed by one to three edits:
// byte and token insertions, replacements and deletions, span copies
// (which repeat members) and case flips.
func mutate(rng *rand.Rand, seeds [][]byte) []byte {
	b := slices.Clone(seeds[rng.IntN(len(seeds))])
	for n := 1 + rng.IntN(3); n > 0; n-- {
		i := rng.IntN(len(b) + 1)
		j := i + rng.IntN(len(b)-i+1)
		tok := mutationTokens[rng.IntN(len(mutationTokens))]
		switch rng.IntN(6) {
		case 0:
			b = slices.Insert(b, i, []byte(tok)...)
		case 1:
			b = slices.Concat(b[:i], []byte(tok), b[j:])
		case 2:
			b = slices.Delete(b, i, j)
		case 3:
			b = slices.Insert(b, i, slices.Clone(b[i:j])...)
		case 4:
			other := seeds[rng.IntN(len(seeds))]
			k := rng.IntN(len(other) + 1)
			b = slices.Insert(b, i, other[k:k+rng.IntN(len(other)-k+1)]...)
		default:
			if i < len(b) {
				switch c := b[i]; {
				case 'a' <= c && c <= 'z':
					b[i] = c - 'a' + 'A'
				case 'A' <= c && c <= 'Z':
					b[i] = c - 'A' + 'a'
				}
			}
		}
	}
	return b
}

// TestDecoderNameTables guards against schema drift: each decoder name
// table lists exactly the JSON names of its wire type, in field order,
// so a field added to a wire type cannot silently become an unknown
// field. No two names of a table may fold together, which matchName
// relies on.
func TestDecoderNameTables(t *testing.T) {
	for _, c := range []struct {
		typ   reflect.Type
		names []string
	}{
		{reflect.TypeFor[PlanRequest](), planNames},
		{reflect.TypeFor[core.Costs](), costsNames},
		{reflect.TypeFor[core.Rates](), ratesNames},
		{reflect.TypeFor[MultilevelPlanRequest](), multilevelNames},
		{reflect.TypeFor[multilevel.Params](), paramsNames},
		{reflect.TypeFor[multilevel.Level](), levelNames},
	} {
		var want []string
		for i := range c.typ.NumField() {
			f := c.typ.Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "-" {
				continue
			}
			if name == "" {
				name = f.Name
			}
			want = append(want, name)
		}
		if !slices.Equal(c.names, want) {
			t.Errorf("%v: decoder names %q, JSON names %q", c.typ, c.names, want)
		}
		for i, a := range c.names {
			for _, b := range c.names[i+1:] {
				if strings.EqualFold(a, b) {
					t.Errorf("%v: names %q and %q fold together", c.typ, a, b)
				}
			}
		}
	}
}

// TestDecodeAllocs: decoding and resolving each perfbench body shape
// allocates at most once — the kind string of a plan body, the Levels
// slice of a multilevel body.
func TestDecodeAllocs(t *testing.T) {
	hera, err := platform.ByName("Hera")
	if err != nil {
		t.Fatal(err)
	}
	hera.Rates.FailStop *= 1.37
	hera.Costs.DiskCkpt *= 0.61
	costs, rates := hera.Costs, hera.Rates
	params, err := multilevel.FromPlatform(hera, 3)
	if err != nil {
		t.Fatal(err)
	}
	marshal := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	plan := marshal(PlanRequest{Kind: core.PDMV.String(), Costs: &costs, Rates: &rates})
	exact := marshal(PlanRequest{Kind: core.PDMVStar.String(), Costs: &costs, Rates: &rates})
	ml := marshal(MultilevelPlanRequest{Params: &params})
	for _, c := range []struct {
		name  string
		parse func() error
	}{
		{"plan", func() error { _, _, _, err := parsePlanRequest(plan); return err }},
		{"plan/exact", func() error { _, _, _, err := parsePlanRequest(exact); return err }},
		{"plan/multilevel", func() error { _, err := parseMultilevelRequest(ml); return err }},
	} {
		if err := c.parse(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if allocs := testing.AllocsPerRun(200, func() { _ = c.parse() }); allocs > 1 {
			t.Errorf("%s body: %v allocs per decode, want at most 1", c.name, allocs)
		}
	}
}
