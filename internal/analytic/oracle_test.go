package analytic

import (
	"fmt"
	"math"

	"respat/internal/core"
	"respat/internal/xmath"
)

// This file holds the test oracles of the model: the truncated
// expansions of Propositions 1-4, the continuous relaxations of EF and
// RW, and the Section 5 model of fail-stop errors striking
// verifications, checkpoints and recoveries. Production evaluates the
// exact renewal equations (Evaluator) and the Table 1 closed forms;
// the tests compare them against these.

// overheadAt returns the first-order expected overhead of family k
// executed with pattern length w: oef/w + orw·w.
func overheadAt(k core.Kind, c core.Costs, r core.Rates, n, m int, w float64) float64 {
	return EF(k, c, n, m)/w + RW(k, c, r, n, m)*w
}

// secondOrderExpectedTime evaluates the truncated expansions of
// Propositions 2-4 for an arbitrary pattern:
//
//	E(P) ≈ oef + W + (λs·Σ_i f_i·α_i² + λf/2)·W²
//
// with f_i = β_iᵀ A^(m_i) β_i. Terms of order O(√λ) are dropped, as in
// the paper. For the one-segment one-chunk pattern, prop1ExpectedTime
// keeps the extra linear recovery terms of Proposition 1.
func secondOrderExpectedTime(p core.Pattern, c core.Costs, r core.Rates) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	recall, interior := c.Recall, c.PartVer
	if p.InteriorGuaranteed {
		recall, interior = 1, c.GuarVer
	}
	errorFree := p.W + c.DiskCkpt
	var h xmath.Accumulator
	for i := 0; i < p.N(); i++ {
		errorFree += c.GuarVer + c.MemCkpt + float64(p.M(i)-1)*interior
		a, err := verificationMatrix(p.M(i), recall)
		if err != nil {
			return 0, err
		}
		fi, err := quadForm(a, p.Beta[i])
		if err != nil {
			return 0, err
		}
		h.Add(fi * p.Alpha[i] * p.Alpha[i])
	}
	w := p.W
	return errorFree + (r.Silent*h.Value()+r.FailStop/2)*w*w, nil
}

// prop1ExpectedTime is the Proposition 1 second-order expansion of the
// base pattern PD, including the O(λW) recovery terms:
//
//	E = W + V* + CM + CD + (λs + λf/2)W² + λsW(V*+RM) + λfW(RM+RD).
func prop1ExpectedTime(w float64, c core.Costs, r core.Rates) float64 {
	return w + c.GuarVer + c.MemCkpt + c.DiskCkpt +
		(r.Silent+r.FailStop/2)*w*w +
		r.Silent*w*(c.GuarVer+c.MemRec) +
		r.FailStop*w*(c.MemRec+c.DiskRec)
}

// fstarCont extends core.Fstar to real m >= 1 (continuous relaxation).
func fstarCont(m, recall float64) float64 {
	if m <= 1 {
		return 1
	}
	return (1 + (2-recall)/((m-2)*recall+2)) / 2
}

// efCont and rwCont are the continuous relaxations of EF and RW used
// to validate the closed-form rational optima.
func efCont(k core.Kind, c core.Costs, n, m float64) float64 {
	if !k.MultiSegment() {
		n = 1
	}
	if !k.MultiChunk() {
		m = 1
	}
	v, _ := interiorVerifCost(k, c)
	return n*(m-1)*v + n*(c.GuarVer+c.MemCkpt) + c.DiskCkpt
}

func rwCont(k core.Kind, c core.Costs, r core.Rates, n, m float64) float64 {
	if !k.MultiSegment() {
		n = 1
	}
	if !k.MultiChunk() {
		m = 1
	}
	_, recall := interiorVerifCost(k, c)
	return fstarCont(m, recall)*r.Silent/n + r.FailStop/2
}

// opCosts aggregates the Section 5 expected durations of the four
// resilience operations when fail-stop errors can strike during them.
type opCosts struct {
	DiskRec  float64 // E(R_D)
	MemRec   float64 // E(R_M)
	DiskCkpt float64 // E(C_D)
	MemCkpt  float64 // E(C_M)
}

// expectedOpCosts solves the recursions (30)-(33) of Section 5 for the
// expected checkpoint and recovery durations under fail-stop errors of
// rate lf. trec is the expected re-execution time E(T_rec) entailed by
// a failure during the operation (bounded by the pattern's expected
// time; pass the value for the pattern under study).
func expectedOpCosts(c core.Costs, lf, trec float64) opCosts {
	retryFactor := func(d float64) float64 {
		// p/(1-p) with p = 1 - e^{-λd}: expected number of failed tries.
		if lf <= 0 || d <= 0 {
			return 0
		}
		return math.Expm1(lf * d)
	}
	var out opCosts
	// E(R_D) = R_D + p/(1-p)·E(T_lost): failures restart the disk read.
	kRD := retryFactor(c.DiskRec)
	out.DiskRec = c.DiskRec + kRD*ExpectedLost(lf, c.DiskRec)
	// E(R_M): a failure during memory restore forces a full disk
	// recovery plus re-execution.
	kRM := retryFactor(c.MemRec)
	out.MemRec = c.MemRec + kRM*(ExpectedLost(lf, c.MemRec)+out.DiskRec+trec)
	// E(C_M): same shape.
	kCM := retryFactor(c.MemCkpt)
	out.MemCkpt = c.MemCkpt + kCM*(ExpectedLost(lf, c.MemCkpt)+out.DiskRec+out.MemRec+trec)
	// E(C_D): additionally re-takes the memory checkpoint.
	kCD := retryFactor(c.DiskCkpt)
	out.DiskCkpt = c.DiskCkpt + kCD*(ExpectedLost(lf, c.DiskCkpt)+out.DiskRec+out.MemRec+trec+out.MemCkpt)
	return out
}

// ExactExpectedTimeWithOpErrors evaluates the exact expected pattern
// time under the Section 5 model, where fail-stop errors also strike
// verifications, checkpoints and recoveries. It combines the exact
// renewal evaluator with the expected-operation-cost recursions
// (Equations 30-33) through a fixed-point iteration: the op costs
// depend on the expected re-execution time E(T_rec), which depends on
// the pattern time computed with those op costs. The iteration
// converges geometrically (the coupling is O(λ·cost)); a handful of
// rounds reaches float64 precision at realistic MTBFs.
//
// Verification costs are folded into their preceding chunks for
// fail-stop exposure (the Section 5 treatment), which matches the
// simulator's ErrorsInOps mode to first order; the residual gap is
// O(λ²) and covered by TestSimulatorMatchesOpErrorModel. It is
// exported for that test, which runs in package analytic_test.
func ExactExpectedTimeWithOpErrors(p core.Pattern, c core.Costs, r core.Rates) (float64, error) {
	if err := p.Validate(); err != nil {
		return 0, err
	}
	if err := c.Validate(); err != nil {
		return 0, err
	}
	if err := r.Validate(); err != nil {
		return 0, err
	}
	// Start from the ops-error-free evaluation.
	e, err := exactWithVerifExposure(p, c, r)
	if err != nil {
		return 0, err
	}
	for i := 0; i < 20; i++ {
		// Use the current pattern-time estimate as E(T_rec): an upper
		// bound for mid-pattern failures, tight for end-of-pattern ones.
		oc := expectedOpCosts(c, r.FailStop, e/2)
		adjusted := c
		adjusted.DiskRec = oc.DiskRec
		adjusted.MemRec = oc.MemRec
		adjusted.DiskCkpt = oc.DiskCkpt
		adjusted.MemCkpt = oc.MemCkpt
		next, err := exactWithVerifExposure(p, adjusted, r)
		if err != nil {
			return 0, err
		}
		if math.Abs(next-e) <= 1e-12*math.Abs(next) {
			return next, nil
		}
		e = next
	}
	return e, nil
}

// exactWithVerifExposure is the exact evaluator with each chunk's
// fail-stop exposure extended by its trailing verification, the §5
// treatment of verification failures.
func exactWithVerifExposure(p core.Pattern, c core.Costs, r core.Rates) (float64, error) {
	recall := c.Recall
	if p.InteriorGuaranteed {
		recall = 1
	}
	interiorCost := c.PartVer
	if p.InteriorGuaranteed {
		interiorCost = c.GuarVer
	}
	var prevSum float64
	var total float64
	for i := 0; i < p.N(); i++ {
		ei := segmentTimeVerifExposed(p, c, r, i, prevSum, recall, interiorCost)
		if math.IsInf(ei, 1) || math.IsNaN(ei) {
			return 0, fmt.Errorf("analytic: expected time diverged at segment %d", i)
		}
		total += ei
		prevSum += ei
	}
	total += c.DiskCkpt
	return total, nil
}

// segmentTimeVerifExposed mirrors exactSegmentTime with the chunk+verif
// exposure of Section 5: the probability of a fail-stop interruption
// covers w+V, and the expected loss is computed over w+V.
func segmentTimeVerifExposed(p core.Pattern, c core.Costs, r core.Rates, i int, prevSum, recall, interiorCost float64) float64 {
	m := p.M(i)
	var s float64
	prodPf := 1.0
	prodPs := 1.0
	g := 0.0
	piAll := 1.0
	for j := 0; j < m; j++ {
		w := p.ChunkWork(i, j)
		verif := interiorCost
		if j == m-1 {
			verif = c.GuarVer
		}
		exposed := w + verif
		pf := probAtLeastOne(r.FailStop, exposed)
		ps := probAtLeastOne(r.Silent, w)
		q := prodPf * (prodPs + g)
		if pf > 0 {
			s += q * pf * (ExpectedLost(r.FailStop, exposed) + c.DiskRec + prevSum)
		}
		s += q * (1 - pf) * exposed
		g = (g + prodPs*ps) * (1 - recall)
		prodPs *= 1 - ps
		prodPf *= 1 - pf
		piAll *= (1 - pf) * (1 - ps)
	}
	return c.MemCkpt + ((1-piAll)*c.MemRec+s)/piAll
}
