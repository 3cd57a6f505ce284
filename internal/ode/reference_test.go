package ode

import (
	"fmt"
	"math"

	"repro/internal/control"
	"repro/internal/la"
)

// The references below are the protected step's assemblies as copy, zero,
// AXPY and Scale passes, the form they had before each became one sweep per
// coefficient. FuzzSweepsMatchReference holds the sweeps to them bit for
// bit.

// referenceTrial is Stepper.Trial with the pass-per-operation assembly: a
// stage input is x copied, then one AXPY per nonzero a_ij; the proposal is
// x copied and the error estimate zeroed, then one AXPY per nonzero weight.
// It uses its own stage storage and returns fresh vectors.
func referenceTrial(tab *control.Tableau, sys control.System, t, h float64, x, k1 la.Vec, hook control.StageHook) (xProp, errV, fProp la.Vec, res control.TrialResult) {
	m := sys.Dim()
	s := tab.Stages()
	k := make([]la.Vec, s)
	for i := range k {
		k[i] = la.NewVec(m)
	}
	xtmp := la.NewVec(m)
	for i := 0; i < s; i++ {
		if i == 0 && k1 != nil {
			k[0].CopyFrom(k1)
			continue
		}
		xtmp.CopyFrom(x)
		for j, a := range tab.A[i] {
			if a != 0 {
				xtmp.AXPY(h*a, k[j])
			}
		}
		st := t + tab.C[i]*h
		sys.Eval(st, xtmp, k[i])
		res.Evals++
		if hook != nil {
			n := hook(i, st, k[i])
			res.Injections += n
			if i == s-1 {
				res.LastStageInjections += n
			}
		}
	}
	xProp, errV = la.NewVec(m), la.NewVec(m)
	xProp.CopyFrom(x)
	errV.Zero()
	for i := 0; i < s; i++ {
		if tab.B[i] != 0 {
			xProp.AXPY(h*tab.B[i], k[i])
		}
		if db := tab.B[i] - tab.BHat[i]; db != 0 {
			errV.AXPY(h*db, k[i])
		}
	}
	if tab.FSAL {
		fProp = k[s-1]
	}
	return xProp, errV, fProp, res
}

// referenceScore is Controller.Score as four passes: the two NaN screens,
// the weights, then the norm.
func referenceScore(c *control.Controller, w, x, e la.Vec) float64 {
	poisoned := x.HasNaNOrInf() || e.HasNaNOrInf()
	if !poisoned {
		c.Weights(w, x)
	}
	if poisoned {
		return math.Inf(1)
	}
	return c.ScaledError(e, w)
}

// referenceLIP is LIPEstimator.Estimate with the zeroed destination and one
// AXPY per node.
func referenceLIP(dst la.Vec, hist *control.History, q int, t float64) int {
	nodes := make([]float64, q+1)
	for k := range nodes {
		nodes[k] = hist.T(k)
	}
	for qEff := distinctPrefix(nodes) - 1; qEff >= 1; qEff-- {
		w := make([]float64, qEff+1)
		la.LagrangeWeightsInto(w, nodes[:qEff+1], t)
		if !finiteAll(w) {
			continue
		}
		dst.Zero()
		for k := 0; k <= qEff; k++ {
			dst.AXPY(w[k], hist.X(k))
		}
		return qEff
	}
	dst.CopyFrom(hist.X(0))
	return 0
}

// referenceBDF is BDFEstimator.Estimate with the copied right-hand side,
// one AXPY per history node and a final Scale.
func referenceBDF(dst la.Vec, hist *control.History, q int, t float64, f la.Vec) int {
	nodes := make([]float64, q+1)
	nodes[0] = t
	for k := 1; k <= q; k++ {
		nodes[k] = hist.T(k - 1)
	}
	for qEff := distinctPrefix(nodes) - 1; qEff >= 1; qEff-- {
		d := make([]float64, qEff+1)
		la.FirstDerivativeWeightsInto(d, make([]float64, qEff+1), t, nodes[:qEff+1])
		if !finiteAll(d) || d[0] == 0 {
			continue
		}
		dst.CopyFrom(f)
		for k := 1; k <= qEff; k++ {
			dst.AXPY(-d[k], hist.X(k-1))
		}
		dst.Scale(1 / d[0])
		return qEff
	}
	dst.CopyFrom(hist.X(0))
	return 0
}

// sameBits is the sweeps' bit contract: equal bits, except that any two
// NaNs match, since Go specifies neither a NaN's sign nor its payload.
func sameBits(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// diffBits describes the first component where got and want break the bit
// contract, or returns "" when they keep it.
func diffBits(got, want la.Vec) string {
	if len(got) != len(want) {
		return fmt.Sprintf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			return fmt.Sprintf("[%d] = %g (%#x), want %g (%#x)",
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	return ""
}
