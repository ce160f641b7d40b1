package service

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"respat/internal/core"
	"respat/internal/multilevel"
)

// The three cacheable plan endpoints decode their JSON bodies with the
// two typed decoders below rather than encoding/json: one pass over the
// bytes, no reflection, straight into the values the handlers use. On
// a cache hit, decoding is most of the request's cost. A forwarded
// request pays it once, on the entry replica, which sends the owner
// the request's canonical key instead of its JSON (decodePlanKey).
//
// The decoders accept what decodeJSON accepts and produce bit-identical
// values (FuzzPlanRequestDecode holds them to encoding/json), under
// encoding/json's rules:
//
//   - a member name matches a field exactly or case-folded as
//     bytes.EqualFold folds; an unknown name is an error;
//   - null leaves a scalar or struct unchanged and sets a pointer or
//     slice to nil;
//   - numbers follow the JSON grammar and convert with the calls
//     encoding/json makes, strconv.ParseFloat(s, 64) and, for levels,
//     strconv.ParseInt(s, 10, strconv.IntSize); a conversion error
//     rejects the body;
//   - a string or name holding an escape or a non-ASCII byte is
//     unquoted by json.Unmarshal, which keeps its escape and
//     invalid-UTF-8 handling.
//
// They are stricter in one way: a member name repeated within an
// object (after case folding) is an error, where encoding/json keeps
// the last value, merges objects or reuses stale slice elements.

// Member names of each decoded object, in field order. The i-th name
// decodes into the i-th field; TestDecoderNameTables holds each table
// to the JSON names of its wire type.
var (
	planNames       = []string{"kind", "platform", "costs", "rates"}
	costsNames      = []string{"DiskCkpt", "MemCkpt", "DiskRec", "MemRec", "GuarVer", "PartVer", "Recall"}
	ratesNames      = []string{"FailStop", "Silent"}
	multilevelNames = []string{"platform", "levels", "params"}
	paramsNames     = []string{"Levels", "GuarVer", "PartVer", "Recall", "Rates", "InteriorGuaranteed"}
	levelNames      = []string{"Ckpt", "Rec", "Share"}
)

// planBody is a decoded PlanRequest with its costs and rates held by
// value, hasCosts and hasRates marking a non-null member. Holding no
// pointers into itself keeps a planBody, like a multilevelBody, on its
// caller's stack.
type planBody struct {
	kind, platform     string
	costs              core.Costs
	rates              core.Rates
	hasCosts, hasRates bool
}

// decodePlanBody strictly decodes a PlanRequest body into b, allocating
// only the kind and platform strings.
func decodePlanBody(raw []byte, b *planBody) error {
	d := bodyDecoder{data: raw}
	return d.body(func() error {
		return d.object(planNames, func(i int) error {
			switch i {
			case 0:
				return d.str(&b.kind)
			case 1:
				return d.str(&b.platform)
			case 2:
				b.hasCosts = !d.null()
				if !b.hasCosts {
					return nil
				}
				return d.costs(&b.costs)
			default:
				b.hasRates = !d.null()
				if !b.hasRates {
					return nil
				}
				return d.rates(&b.rates)
			}
		})
	})
}

// multilevelBody is a decoded MultilevelPlanRequest with its params
// held by value, hasParams marking a non-null member.
type multilevelBody struct {
	platform  string
	levels    int
	params    multilevel.Params
	hasParams bool
}

// decodeMultilevelBody strictly decodes a MultilevelPlanRequest body
// into b, allocating only the platform string and the Levels slice.
func decodeMultilevelBody(raw []byte, b *multilevelBody) error {
	d := bodyDecoder{data: raw}
	return d.body(func() error {
		return d.object(multilevelNames, func(i int) error {
			switch i {
			case 0:
				return d.str(&b.platform)
			case 1:
				return d.integer(&b.levels)
			default:
				b.hasParams = !d.null()
				if !b.hasParams {
					return nil
				}
				return d.params(&b.params)
			}
		})
	})
}

func (d *bodyDecoder) costs(c *core.Costs) error {
	return d.object(costsNames, func(i int) error {
		return d.float([...]*float64{
			&c.DiskCkpt, &c.MemCkpt, &c.DiskRec, &c.MemRec, &c.GuarVer, &c.PartVer, &c.Recall,
		}[i])
	})
}

func (d *bodyDecoder) rates(r *core.Rates) error {
	return d.object(ratesNames, func(i int) error {
		return d.float([...]*float64{&r.FailStop, &r.Silent}[i])
	})
}

func (d *bodyDecoder) params(p *multilevel.Params) error {
	return d.object(paramsNames, func(i int) error {
		switch i {
		case 0:
			return d.levels(&p.Levels)
		case 1:
			return d.float(&p.GuarVer)
		case 2:
			return d.float(&p.PartVer)
		case 3:
			return d.float(&p.Recall)
		case 4:
			return d.rates(&p.Rates)
		default:
			return d.boolean(&p.InteriorGuaranteed)
		}
	})
}

// levels decodes an array of Level objects, or null, into *ls. The
// elements collect in a stack buffer sized for a valid hierarchy and
// are copied out once, so the slice is the only allocation.
func (d *bodyDecoder) levels(ls *[]multilevel.Level) error {
	if d.null() {
		*ls = nil
		return nil
	}
	if !d.consume('[') {
		return d.syntaxError("an array")
	}
	var buf [multilevel.MaxLevels]multilevel.Level
	out := buf[:0]
	if !d.consume(']') {
		for {
			out = append(out, multilevel.Level{})
			l := &out[len(out)-1]
			err := d.object(levelNames, func(i int) error {
				return d.float([...]*float64{&l.Ckpt, &l.Rec, &l.Share}[i])
			})
			if err != nil {
				return inField("["+strconv.Itoa(len(out)-1)+"]", err)
			}
			if d.consume(',') {
				continue
			}
			if d.consume(']') {
				break
			}
			return d.syntaxError("',' or ']'")
		}
	}
	*ls = slices.Clone(out)
	return nil
}

// bodyDecoder is a cursor over one request body. Its methods are the
// scanner primitives the two typed decoders share; each skips the
// whitespace before its token.
type bodyDecoder struct {
	data []byte
	pos  int
}

// body decodes a whole request body with value and requires that only
// whitespace follows it.
func (d *bodyDecoder) body(value func() error) error {
	if err := value(); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	d.skipSpace()
	if d.pos < len(d.data) {
		return fmt.Errorf("bad request body: trailing data at offset %d", d.pos)
	}
	return nil
}

// object decodes an object whose member names come from names, calling
// member with the index of each member's name and the cursor at its
// value. An unknown or repeated name is an error. null leaves the
// object's fields unchanged, as encoding/json leaves a struct.
func (d *bodyDecoder) object(names []string, member func(i int) error) error {
	if d.null() {
		return nil
	}
	if !d.consume('{') {
		return d.syntaxError("an object")
	}
	if d.consume('}') {
		return nil
	}
	var seen uint64
	for {
		name, err := d.name()
		if err != nil {
			return err
		}
		i := matchName(names, name)
		switch {
		case i < 0:
			return fmt.Errorf("unknown field %q", name)
		case seen&(1<<i) != 0:
			return fmt.Errorf("duplicate field %q", name)
		}
		seen |= 1 << i
		if !d.consume(':') {
			return d.syntaxError("':'")
		}
		if err := member(i); err != nil {
			return inField(names[i], err)
		}
		if d.consume(',') {
			continue
		}
		if d.consume('}') {
			return nil
		}
		return d.syntaxError("',' or '}'")
	}
}

// matchName returns the index of the entry of names that name matches
// case-folded, or -1. No two entries of a table fold together, so
// encoding/json's preference for an exact match cannot pick another.
func matchName(names []string, name []byte) int {
	for i, n := range names {
		if strings.EqualFold(string(name), n) {
			return i
		}
	}
	return -1
}

// name decodes a member name.
func (d *bodyDecoder) name() ([]byte, error) {
	tok, plain, err := d.stringToken()
	switch {
	case err != nil:
		return nil, err
	case plain:
		return tok[1 : len(tok)-1], nil
	}
	var s string
	if err := json.Unmarshal(tok, &s); err != nil {
		return nil, err
	}
	return []byte(s), nil
}

// str decodes a string, or null (which leaves *s unchanged), into *s.
func (d *bodyDecoder) str(s *string) error {
	if d.null() {
		return nil
	}
	tok, plain, err := d.stringToken()
	switch {
	case err != nil:
		return err
	case plain:
		*s = string(tok[1 : len(tok)-1])
		return nil
	}
	// Unmarshalling into a local keeps s, and the body it points into,
	// off the heap.
	var v string
	if err := json.Unmarshal(tok, &v); err != nil {
		return err
	}
	*s = v
	return nil
}

// float decodes a number, or null (which leaves *f unchanged), into *f.
func (d *bodyDecoder) float(f *float64) error {
	if d.null() {
		return nil
	}
	tok, err := d.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return err
	}
	*f = v
	return nil
}

// integer decodes a number, or null (which leaves *n unchanged), into
// *n; a number with a fraction or exponent is an error.
func (d *bodyDecoder) integer(n *int) error {
	if d.null() {
		return nil
	}
	tok, err := d.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		return err
	}
	*n = int(v)
	return nil
}

// boolean decodes true, false, or null (which leaves *b unchanged),
// into *b.
func (d *bodyDecoder) boolean(b *bool) error {
	switch {
	case d.null():
	case d.literal("true"):
		*b = true
	case d.literal("false"):
		*b = false
	default:
		return d.syntaxError("true, false or null")
	}
	return nil
}

// stringToken scans a string and returns it with its quotes. plain
// reports that it holds neither an escape nor a non-ASCII byte, so the
// bytes between the quotes are its value.
func (d *bodyDecoder) stringToken() (tok []byte, plain bool, err error) {
	if !d.consume('"') {
		return nil, false, d.syntaxError("a string")
	}
	start := d.pos - 1
	plain = true
	for i := d.pos; i < len(d.data); i++ {
		switch c := d.data[i]; {
		case c == '"':
			d.pos = i + 1
			return d.data[start:d.pos], plain, nil
		case c == '\\':
			plain = false
			i++ // the escaped byte cannot close the string
		case c < ' ':
			d.pos = i
			return nil, false, d.syntaxError("a string character")
		case c >= utf8.RuneSelf:
			plain = false
		}
	}
	d.pos = len(d.data)
	return nil, false, d.syntaxError("'\"'")
}

// number scans a number in the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its bytes.
func (d *bodyDecoder) number() ([]byte, error) {
	d.skipSpace()
	start := d.pos
	if d.peek('-') {
		d.pos++
	}
	switch {
	case d.peek('0'):
		d.pos++
	case !d.digits():
		return nil, d.syntaxError("a number")
	}
	if d.peek('.') {
		d.pos++
		if !d.digits() {
			return nil, d.syntaxError("a digit")
		}
	}
	if d.peek('e') || d.peek('E') {
		d.pos++
		if d.peek('+') || d.peek('-') {
			d.pos++
		}
		if !d.digits() {
			return nil, d.syntaxError("a digit")
		}
	}
	return d.data[start:d.pos], nil
}

// digits consumes a run of decimal digits and reports whether it was
// non-empty.
func (d *bodyDecoder) digits() bool {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}

// null consumes a null literal if one comes next.
func (d *bodyDecoder) null() bool { return d.literal("null") }

// literal consumes lit if it comes next.
func (d *bodyDecoder) literal(lit string) bool {
	d.skipSpace()
	if rest := d.data[d.pos:]; len(rest) >= len(lit) && string(rest[:len(lit)]) == lit {
		d.pos += len(lit)
		return true
	}
	return false
}

// consume consumes the byte c if it comes next.
func (d *bodyDecoder) consume(c byte) bool {
	d.skipSpace()
	if d.peek(c) {
		d.pos++
		return true
	}
	return false
}

// peek reports whether the byte at the cursor is c.
func (d *bodyDecoder) peek(c byte) bool { return d.pos < len(d.data) && d.data[d.pos] == c }

// skipSpace skips JSON whitespace.
func (d *bodyDecoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// syntaxError reports that the input at the cursor is not what the
// decoder wants there.
func (d *bodyDecoder) syntaxError(want string) error {
	if d.pos >= len(d.data) {
		return fmt.Errorf("unexpected end of input, want %s", want)
	}
	return fmt.Errorf("invalid character %q at offset %d, want %s", d.data[d.pos], d.pos, want)
}

// fieldError locates a decoding error at a member path such as
// "params.Levels[1].Ckpt".
type fieldError struct {
	path string
	err  error
}

func (e *fieldError) Error() string { return e.path + ": " + e.err.Error() }

func (e *fieldError) Unwrap() error { return e.err }

// inField prefixes the location of err with the member name or the
// "[k]" element step that contained it.
func inField(step string, err error) error {
	fe, ok := err.(*fieldError)
	if !ok {
		return &fieldError{path: step, err: err}
	}
	if !strings.HasPrefix(fe.path, "[") {
		step += "."
	}
	return &fieldError{path: step + fe.path, err: fe.err}
}
