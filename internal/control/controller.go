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
	// Ranks, when non-nil, finishes every norm of a vector distributed over
	// the ranks of a parallel solve: each rank holds its block, and Score,
	// ScaledError and ScaledDiff combine the blocks' partials through it, so
	// every rank sees the same value and takes the same decision. Nil on
	// serial paths. Its dynamic type must be comparable.
	Ranks Reducer
}

// Reducer combines per-rank partials across the ranks of a parallel solve
// (an allreduce): each call replaces every element of v with its sum, or
// its maximum, over all ranks. Every rank must make the same calls in the
// same order.
type Reducer interface {
	Sum(v []float64)
	Max(v []float64)
}

// DefaultController returns the paper's controller settings with the given
// tolerances.
func DefaultController(tolA, tolR float64) Controller {
	return Controller{TolA: tolA, TolR: tolR}
}

// Weights fills w with the componentwise error level
// Err_i = TolA + TolR*|x_i| (§III-B).
func (c *Controller) Weights(w, x la.Vec) { la.ErrWeights(w, x, c.TolA, c.TolR) }

// Score refreshes the weights w from the proposal x and returns SErr_1, the
// scaled error of the estimate e under them — or +Inf, leaving w as it
// was, when x or e holds a NaN or Inf. With Ranks set, the NaN screen
// travels in the norm's one reduction: a poisoned block on one rank sends
// every rank down the same branch, and no rank skips a collective the
// others enter.
//
// The serial WRMS path screens x and e in one pass, then writes each weight
// and adds its squared ratio in a second: per component the operations and
// their order are those of Weights followed by ScaledError.
func (c *Controller) Score(w, x, e la.Vec) float64 {
	poisoned := !allFinite(x, e)
	if c.Ranks != nil || c.MaxNorm {
		if !poisoned {
			c.Weights(w, x)
		}
		if c.Ranks != nil {
			return c.rankNorm(e, nil, w, poisoned)
		}
		if poisoned {
			return math.Inf(1)
		}
		return la.WMax(e, w)
	}
	if poisoned {
		return math.Inf(1)
	}
	if len(w) != len(x) || len(e) != len(w) {
		panic("control: Score length mismatch")
	}
	if len(e) == 0 {
		return 0
	}
	var s float64
	for i := range w {
		w[i] = c.TolA + c.TolR*math.Abs(x[i])
		r := e[i] / w[i]
		s += r * r
	}
	return math.Sqrt(s / float64(len(e)))
}

// allFinite reports whether every component of x and e is finite, in one
// pass over both when their lengths agree. |v| <= MaxFloat64 fails for
// exactly the NaNs and infinities.
func allFinite(x, e la.Vec) bool {
	if len(x) != len(e) {
		return !x.HasNaNOrInf() && !e.HasNaNOrInf()
	}
	for i := range x {
		if !(math.Abs(x[i]) <= math.MaxFloat64 && math.Abs(e[i]) <= math.MaxFloat64) {
			return false
		}
	}
	return true
}

// ScaledError returns SErr, the scaled error of the estimate errVec under
// the weights w. The step satisfies the tolerances when SErr <= 1.
func (c *Controller) ScaledError(errVec, w la.Vec) float64 {
	if c.Ranks != nil {
		return c.rankNorm(errVec, nil, w, false)
	}
	if c.MaxNorm {
		return la.WMax(errVec, w)
	}
	return la.WRMS(errVec, w)
}

// ScaledDiff returns the scaled error of a-b under the weights w, used by
// the double-checking strategies for their second estimate SErr_2.
func (c *Controller) ScaledDiff(a, b, w la.Vec) float64 {
	if c.Ranks != nil {
		return c.rankNorm(a, b, w, false)
	}
	if c.MaxNorm {
		return la.WMaxDiff(a, b, w)
	}
	return la.WRMSDiff(a, b, w)
}

// rankNorm finishes the scaled norm of a (of a-b when b is non-nil) across
// the ranks in one reduction of three values: this rank's partial (its
// maximum, or its WRMS sum of squares), its length, and a flag set when it
// is poisoned, in which case it contributes nothing else. Any poisoned rank
// makes the result +Inf.
func (c *Controller) rankNorm(a, b, w la.Vec, poisoned bool) float64 {
	part := [3]float64{1: float64(len(a))}
	switch {
	case poisoned:
		part[2] = 1
	case c.MaxNorm && b == nil:
		part[0] = la.WMax(a, w)
	case c.MaxNorm:
		part[0] = la.WMaxDiff(a, b, w)
	case b == nil:
		part[0], _ = la.WRMSPartial(a, w)
	default:
		for i := range a {
			r := (a[i] - b[i]) / w[i]
			part[0] += r * r
		}
	}
	if c.MaxNorm {
		c.Ranks.Max(part[:])
	} else {
		c.Ranks.Sum(part[:])
	}
	switch {
	case part[2] > 0:
		return math.Inf(1)
	case c.MaxNorm:
		return part[0]
	}
	return la.WRMSFinish(part[0], int(part[1]))
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
		var a float64
		if controlOrder == 2 {
			// Pow(x, 0.5) is Sqrt(x) bit for bit (the cases Pow settles
			// first, x = 1, 0 and +Inf, agree with Sqrt), without Pow's
			// special-case ladder.
			a = alpha * math.Sqrt(1/sErr)
		} else {
			a = alpha * math.Pow(1/sErr, 1/float64(controlOrder))
		}
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
