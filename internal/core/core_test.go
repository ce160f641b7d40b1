package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"respat/internal/xmath"
)

func validCosts() Costs {
	return Costs{DiskCkpt: 300, MemCkpt: 15.4, DiskRec: 300, MemRec: 15.4,
		GuarVer: 15.4, PartVer: 0.154, Recall: 0.8}
}

func TestCostsValidate(t *testing.T) {
	if err := validCosts().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := validCosts()
	bad.DiskCkpt = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative CD should fail")
	}
	bad = validCosts()
	bad.Recall = 0
	if err := bad.Validate(); err == nil {
		t.Error("recall 0 should fail")
	}
	bad = validCosts()
	bad.Recall = 1.2
	if err := bad.Validate(); err == nil {
		t.Error("recall > 1 should fail")
	}
	bad = validCosts()
	bad.GuarVer = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Error("NaN cost should fail")
	}
}

func TestAccuracyToCost(t *testing.T) {
	c := validCosts()
	// a = (r/(2-r)) / (V/(V*+CM)) = (0.8/1.2) / (0.154/30.8) = 133.33.
	want := (0.8 / 1.2) / (0.154 / 30.8)
	if got := c.AccuracyToCost(); !xmath.Close(got, want, 1e-12) {
		t.Errorf("AccuracyToCost = %v, want %v", got, want)
	}
	// The paper notes partial verification ratios can be ~100x better
	// than the guaranteed one, CM/V* + 1; with the simulation defaults
	// it indeed is.
	if guaranteed := c.MemCkpt/c.GuarVer + 1; c.AccuracyToCost() < 50*guaranteed {
		t.Errorf("partial ratio %v not >> guaranteed ratio %v", c.AccuracyToCost(), guaranteed)
	}
	c.PartVer = 0
	if !math.IsInf(c.AccuracyToCost(), 1) {
		t.Error("free partial verification should have infinite ratio")
	}
}

func TestRates(t *testing.T) {
	r := Rates{FailStop: 2e-6, Silent: 3e-6}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if !xmath.Close(r.Total(), 5e-6, 1e-15) {
		t.Errorf("Total = %v", r.Total())
	}
	if !xmath.Close(r.MTBF(), 2e5, 1e-9) {
		t.Errorf("MTBF = %v", r.MTBF())
	}
	s := r.Scale(2, 0.5)
	if !xmath.Close(s.FailStop, 4e-6, 1e-15) || !xmath.Close(s.Silent, 1.5e-6, 1e-15) {
		t.Errorf("Scale = %+v", s)
	}
	if (Rates{}).MTBF() != math.Inf(1) {
		t.Error("zero rates should give infinite MTBF")
	}
	if err := (Rates{FailStop: -1}).Validate(); err == nil {
		t.Error("negative rate should fail")
	}
}

func TestKindStringRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("round trip %v -> %v", k, got)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("unknown kind should fail")
	}
	if k, err := ParseKind("pdmvstar"); err != nil || k != PDMVStar {
		t.Errorf("ParseKind(pdmvstar) = %v, %v", k, err)
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind String = %q", got)
	}
}

func TestKindPredicates(t *testing.T) {
	cases := []struct {
		k                          Kind
		multiSeg, multiChunk, part bool
	}{
		{PD, false, false, false},
		{PDVStar, false, true, false},
		{PDV, false, true, true},
		{PDM, true, false, false},
		{PDMVStar, true, true, false},
		{PDMV, true, true, true},
	}
	for _, c := range cases {
		if c.k.MultiSegment() != c.multiSeg {
			t.Errorf("%v.MultiSegment() = %v", c.k, c.k.MultiSegment())
		}
		if c.k.MultiChunk() != c.multiChunk {
			t.Errorf("%v.MultiChunk() = %v", c.k, c.k.MultiChunk())
		}
		if c.k.PartialVerifs() != c.part {
			t.Errorf("%v.PartialVerifs() = %v", c.k, c.k.PartialVerifs())
		}
	}
}

func TestUniformPattern(t *testing.T) {
	p, err := Uniform(3600, 2, 3, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.N() != 2 || p.M(0) != 3 || p.M(1) != 3 {
		t.Errorf("shape wrong: %v", p)
	}
	if !xmath.Close(p.SegmentWork(0), 1800, 1e-9) {
		t.Errorf("SegmentWork = %v", p.SegmentWork(0))
	}
	// Theorem 3 chunks: first/last 1/2.8, middle 0.8/2.8 of the segment.
	if !xmath.Close(p.ChunkWork(0, 0), 1800/2.8, 1e-9) {
		t.Errorf("ChunkWork(0,0) = %v, want %v", p.ChunkWork(0, 0), 1800/2.8)
	}
	if !xmath.Close(p.ChunkWork(0, 1), 1800*0.8/2.8, 1e-9) {
		t.Errorf("ChunkWork(0,1) = %v", p.ChunkWork(0, 1))
	}
}

func TestUniformValidation(t *testing.T) {
	if _, err := Uniform(100, 0, 1, 0.5); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := Uniform(100, 1, 0, 0.5); err == nil {
		t.Error("m=0 should fail")
	}
	if _, err := Uniform(-5, 1, 1, 0.5); err == nil {
		t.Error("W<0 should fail")
	}
	if _, err := Uniform(100, 1, 1, 2); err == nil {
		t.Error("r>1 should fail")
	}
}

func TestValidateCatchesBadFractions(t *testing.T) {
	p := Pattern{W: 100, Alpha: []float64{0.6, 0.6}, Beta: [][]float64{{1}, {1}}}
	if err := p.Validate(); !errors.Is(err, ErrInvalidPattern) {
		t.Errorf("alpha not summing to 1 should fail, got %v", err)
	}
	p = Pattern{W: 100, Alpha: []float64{1}, Beta: [][]float64{{0.5, 0.4}}}
	if err := p.Validate(); !errors.Is(err, ErrInvalidPattern) {
		t.Errorf("beta not summing to 1 should fail, got %v", err)
	}
	p = Pattern{W: 100, Alpha: []float64{1}, Beta: [][]float64{}}
	if err := p.Validate(); !errors.Is(err, ErrInvalidPattern) {
		t.Errorf("missing beta rows should fail, got %v", err)
	}
	p = Pattern{W: 100, Alpha: []float64{0.5, 0.5}, Beta: [][]float64{{1}, {}}}
	if err := p.Validate(); !errors.Is(err, ErrInvalidPattern) {
		t.Errorf("empty segment should fail, got %v", err)
	}
	p = Pattern{W: 100, Alpha: []float64{-0.5, 1.5}, Beta: [][]float64{{1}, {1}}}
	if err := p.Validate(); !errors.Is(err, ErrInvalidPattern) {
		t.Errorf("negative alpha should fail, got %v", err)
	}
}

func TestUniformAlwaysValid(t *testing.T) {
	f := func(nRaw, mRaw uint8, rRaw, wRaw float64) bool {
		n := int(nRaw%10) + 1
		m := int(mRaw%10) + 1
		r := math.Mod(math.Abs(rRaw), 0.999) + 0.001
		w := math.Mod(math.Abs(wRaw), 1e6) + 1
		p, err := Uniform(w, n, m, r)
		if err != nil {
			return false
		}
		return p.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestScheduleStructure(t *testing.T) {
	p, err := Uniform(2800, 2, 3, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	sched := p.Schedule()
	// Per segment: 3 chunks + 2 partial verifs + guar verif + mem ckpt = 7.
	// Two segments + final disk ckpt = 15.
	if len(sched) != 15 {
		t.Fatalf("schedule length = %d, want 15", len(sched))
	}
	wantOps := []Op{
		OpChunk, OpPartVer, OpChunk, OpPartVer, OpChunk, OpGuarVer, OpMemCkpt,
		OpChunk, OpPartVer, OpChunk, OpPartVer, OpChunk, OpGuarVer, OpMemCkpt,
		OpDisk,
	}
	var work float64
	for i, a := range sched {
		if a.Op != wantOps[i] {
			t.Errorf("sched[%d].Op = %v, want %v", i, a.Op, wantOps[i])
		}
		work += a.Work
	}
	if !xmath.Close(work, 2800, 1e-9) {
		t.Errorf("total scheduled work = %v, want 2800", work)
	}
	if sched[7].Segment != 1 || sched[7].Chunk != 0 {
		t.Errorf("second segment first chunk mislabelled: %+v", sched[7])
	}
}

func TestSchedulePDIsMinimal(t *testing.T) {
	p, err := Uniform(1000, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	sched := p.Schedule()
	wantOps := []Op{OpChunk, OpGuarVer, OpMemCkpt, OpDisk}
	if len(sched) != len(wantOps) {
		t.Fatalf("schedule length = %d, want %d", len(sched), len(wantOps))
	}
	for i, a := range sched {
		if a.Op != wantOps[i] {
			t.Errorf("sched[%d].Op = %v, want %v", i, a.Op, wantOps[i])
		}
	}
}

// errorFreeTime returns the wall-clock duration of one error-free
// traversal of the pattern: W plus all verification and checkpoint
// costs. It is the oracle for the pattern's schedule.
func errorFreeTime(p Pattern, c Costs) float64 {
	interior := c.PartVer
	if p.InteriorGuaranteed {
		interior = c.GuarVer
	}
	t := p.W + c.DiskCkpt
	for i := range p.Alpha {
		t += c.GuarVer + c.MemCkpt
		t += float64(len(p.Beta[i])-1) * interior
	}
	return t
}

func TestErrorFreeTime(t *testing.T) {
	c := validCosts()
	p, err := Uniform(1000, 2, 3, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	// W + 2(V*+CM) + 4V + CD
	want := 1000 + 2*(15.4+15.4) + 4*0.154 + 300
	if got := errorFreeTime(p, c); !xmath.Close(got, want, 1e-12) {
		t.Errorf("errorFreeTime = %v, want %v", got, want)
	}
}

func TestErrorFreeTimeMatchesSchedule(t *testing.T) {
	c := validCosts()
	f := func(nRaw, mRaw uint8) bool {
		n := int(nRaw%5) + 1
		m := int(mRaw%5) + 1
		p, err := Uniform(5000, n, m, c.Recall)
		if err != nil {
			return false
		}
		var total float64
		for _, a := range p.Schedule() {
			switch a.Op {
			case OpChunk:
				total += a.Work
			case OpPartVer:
				total += c.PartVer
			case OpGuarVer:
				total += c.GuarVer
			case OpMemCkpt:
				total += c.MemCkpt
			case OpDisk:
				total += c.DiskCkpt
			}
		}
		return xmath.Close(total, errorFreeTime(p, c), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOpString(t *testing.T) {
	for _, c := range []struct {
		op   Op
		want string
	}{
		{OpChunk, "chunk"}, {OpPartVer, "partial-verif"},
		{OpGuarVer, "guaranteed-verif"}, {OpMemCkpt, "mem-ckpt"}, {OpDisk, "disk-ckpt"},
	} {
		if c.op.String() != c.want {
			t.Errorf("%d.String() = %q, want %q", c.op, c.op.String(), c.want)
		}
	}
	if Op(42).String() != "Op(42)" {
		t.Error("unknown op String")
	}
}

func TestPatternString(t *testing.T) {
	p, _ := Uniform(3600, 2, 3, 0.8)
	if got := p.String(); got != "P(W=3600, n=2, m=[3 3])" {
		t.Errorf("String = %q", got)
	}
}
