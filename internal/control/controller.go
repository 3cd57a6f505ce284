package control

import (
	"math"

	"repro/internal/la"
)

// The step-size law's constants (§III-B, Eq. 5, and PETSc's defaults):
// safety factor alpha and the largest allowed decrease and increase factors.
const (
	alpha    = 0.9
	alphaMin = 0.1
	alphaMax = 10
)

// Controller is the classic adaptive step controller (§III-B): the error
// tolerances and the norm of the scaled error. The zero Controller is
// unset; the integrators replace it with their default tolerances.
type Controller struct {
	TolA    float64 // absolute tolerance Tol_A
	TolR    float64 // relative tolerance Tol_R
	MaxNorm bool    // use the q = infinity scaled error instead of WRMS
}

// DefaultController returns the paper's controller settings with the given
// tolerances.
func DefaultController(tolA, tolR float64) Controller {
	return Controller{TolA: tolA, TolR: tolR}
}

// Weights fills w with the componentwise error level
// Err_i = TolA + TolR*|x_i| (§III-B).
func (c *Controller) Weights(w, x la.Vec) { la.ErrWeights(w, x, c.TolA, c.TolR) }

// ScaledError returns SErr, the scaled error of the estimate errVec under
// the weights w. The step satisfies the tolerances when SErr <= 1.
func (c *Controller) ScaledError(errVec, w la.Vec) float64 {
	if c.MaxNorm {
		return la.WMax(errVec, w)
	}
	return la.WRMS(errVec, w)
}

// ScaledDiff returns the scaled error of a-b under the weights w, used by
// the double-checking strategies for their second estimate SErr_2.
func (c *Controller) ScaledDiff(a, b, w la.Vec) float64 {
	if c.MaxNorm {
		return la.WMaxDiff(a, b, w)
	}
	return la.WRMSDiff(a, b, w)
}

// NewStepSize implements the step-size law of Eq. (5):
//
//	h_new = h * min(alphaMax, max(alphaMin, alpha*(1/SErr)^(1/controlOrder))).
//
// controlOrder is p̂+1 (Tableau.ControlOrder). A zero SErr yields the
// maximum increase, as in PETSc. Degenerate inputs are sanitized rather
// than propagated: a non-finite h returns 0 (driving the integrator into
// its explicit MinStep underflow failure instead of poisoning the step
// sequence with NaN), and a NaN or +Inf scaled error — a corrupted or
// blown-up estimate — contracts maximally (the old behaviour let NaN fall
// through the sErr > 0 comparison and selected the maximum increase).
func (c *Controller) NewStepSize(h, sErr float64, controlOrder int) float64 {
	if math.IsNaN(h) || math.IsInf(h, 0) {
		return 0
	}
	if math.IsNaN(sErr) || math.IsInf(sErr, 1) {
		return h * alphaMin
	}
	factor := float64(alphaMax)
	if sErr > 0 {
		a := alpha * math.Pow(1/sErr, 1/float64(controlOrder))
		factor = math.Min(alphaMax, math.Max(alphaMin, a))
	}
	return h * factor
}

// RejectStepSize is the post-rejection contraction used by every integrator
// in the tree: a +Inf scaled error (a NaN/Inf-poisoned proposal) contracts
// maximally, anything else follows the step-size law of Eq. (5). Extracted
// here so the classic-reject branch cannot drift between solvers.
func (c *Controller) RejectStepSize(h, sErr float64, controlOrder int) float64 {
	if math.IsInf(sErr, 1) {
		return h * alphaMin
	}
	return c.NewStepSize(h, sErr, controlOrder)
}

// InitialStep implements the classic automatic starting-step heuristic
// (Hairer, Nørsett & Wanner II.4): it combines the scaled sizes of x0 and
// f(x0) with one explicit Euler probe to bound the second derivative, then
// takes the smaller of the two candidate steps raised to the method order.
// It costs two right-hand-side evaluations.
func (c *Controller) InitialStep(sys System, t0 float64, x0 la.Vec, controlOrder int, span float64) float64 {
	m := sys.Dim()
	f0 := la.NewVec(m)
	sys.Eval(t0, x0, f0)
	w := la.NewVec(m)
	c.Weights(w, x0)
	d0 := la.WRMS(x0, w)
	d1 := la.WRMS(f0, w)
	var h0 float64
	if d0 < 1e-5 || d1 < 1e-5 {
		h0 = 1e-6
	} else {
		h0 = 0.01 * d0 / d1
	}
	if span > 0 && h0 > span {
		h0 = span
	}
	// Explicit Euler probe to estimate the second derivative scale.
	x1 := x0.Clone()
	x1.AXPY(h0, f0)
	f1 := la.NewVec(m)
	sys.Eval(t0+h0, x1, f1)
	f1.Sub(f0)
	d2 := la.WRMS(f1, w) / h0
	var h1 float64
	if math.Max(d1, d2) <= 1e-15 {
		h1 = math.Max(1e-6, h0*1e-3)
	} else {
		h1 = math.Pow(0.01/math.Max(d1, d2), 1/float64(controlOrder))
	}
	h := math.Min(100*h0, h1)
	if span > 0 && h > span {
		h = span
	}
	return h
}
