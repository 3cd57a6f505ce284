package ode

import (
	"math"
	"testing"

	"repro/internal/la"
)

// FuzzScaledError drives the controller's scaled-error norms (WRMS and the
// q=infinity variant) with arbitrary bit patterns. The norms sit on the
// hot path between a possibly corrupted error estimate and the accept
// decision, so they must never panic, and for well-formed inputs (finite
// components, nonzero weights) they must produce a nonnegative, non-NaN
// scaled error. The diff forms must agree bitwise with norm-of-difference.
func FuzzScaledError(f *testing.F) {
	f.Add(0.0, 0.0, 1e-6, 1e-6, byte(0))
	f.Add(1.0, -2.0, 1e-6, 1e-3, byte(1))
	f.Add(math.NaN(), 1.0, 1e-6, 1e-6, byte(0))
	f.Add(math.Inf(1), math.Inf(-1), 1e-6, 1e-6, byte(1))
	f.Add(1e308, 1e308, 5e-324, 1e-6, byte(0))
	f.Add(1.0, 1.0, 0.0, 0.0, byte(0)) // zero weights: 0/0 may be NaN, must not panic
	f.Fuzz(func(t *testing.T, e0, e1, w0, w1 float64, norm byte) {
		c := DefaultController(1e-6, 1e-6)
		c.MaxNorm = norm&1 == 1

		e := la.Vec{e0, e1}
		w := la.Vec{w0, w1}
		got := c.ScaledError(e, w)

		finite := func(vs ...float64) bool {
			for _, v := range vs {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
			return true
		}
		if finite(e0, e1, w0, w1) && w0 != 0 && w1 != 0 {
			if math.IsNaN(got) {
				t.Fatalf("ScaledError(%v, %v) = NaN for finite inputs with nonzero weights", e, w)
			}
			if got < 0 {
				t.Fatalf("ScaledError(%v, %v) = %g < 0", e, w, got)
			}
		}

		// The fused diff norms must match norm-of-materialized-difference
		// bit for bit: the FP-rescue mechanism depends on recomputed scaled
		// errors being bitwise reproducible.
		a := la.Vec{e0, w0}
		b := la.Vec{e1, w1}
		wt := la.Vec{1, 0.5}
		d := la.Vec{e0 - e1, w0 - w1}
		gotDiff := c.ScaledDiff(a, b, wt)
		want := c.ScaledError(d, wt)
		if math.Float64bits(gotDiff) != math.Float64bits(want) {
			t.Fatalf("ScaledDiff(%v, %v, %v) = %x, ScaledError of difference = %x",
				a, b, wt, math.Float64bits(gotDiff), math.Float64bits(want))
		}
	})
}

// FuzzNewStepSize drives the step-size law with arbitrary bit patterns.
// A corrupted LTE estimate reaches it directly, so it must never emit NaN
// (which would poison every subsequent step size), and for a well-formed
// step size the result must stay inside the law's [0.1*h, 10*h] clamp.
// Every result must also equal, bit for bit, Eq. (5) written with
// math.Pow at every control order: the law's Sqrt path at order 2 is a
// shortcut, not a different rounding.
func FuzzNewStepSize(f *testing.F) {
	f.Add(0.01, 0.5, byte(2))
	f.Add(0.01, 0.0, byte(3))
	f.Add(0.01, math.NaN(), byte(2))
	f.Add(math.NaN(), 0.5, byte(2))
	f.Add(math.Inf(1), 0.5, byte(2))
	f.Add(-0.01, 2.0, byte(5))
	f.Add(0.01, math.Inf(1), byte(2))
	f.Add(1e308, 5e-324, byte(1))
	// Control order 2 (byte 1), at Pow's special cases and the extremes.
	for _, sErr := range []float64{5e-324, 1e-308, 1, math.MaxFloat64, 0} {
		f.Add(0.01, sErr, byte(1))
	}
	f.Fuzz(func(t *testing.T, h, sErr float64, order byte) {
		controlOrder := int(order%8) + 1
		c := DefaultController(1e-6, 1e-6)

		got := c.NewStepSize(h, sErr, controlOrder)
		if math.IsNaN(got) {
			t.Fatalf("NewStepSize(h=%g, sErr=%g, k=%d) = NaN", h, sErr, controlOrder)
		}
		if h > 0 && !math.IsInf(h, 0) && !math.IsNaN(sErr) && sErr >= 0 {
			lo, hi := h*0.1, h*10
			if got < lo || got > hi {
				t.Fatalf("NewStepSize(h=%g, sErr=%g, k=%d) = %g outside [%g, %g]",
					h, sErr, controlOrder, got, lo, hi)
			}
		}
		if want := powStepSize(h, sErr, controlOrder); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("NewStepSize(h=%g, sErr=%g, k=%d) = %x, Eq. (5) with math.Pow = %x",
				h, sErr, controlOrder, math.Float64bits(got), math.Float64bits(want))
		}
	})
}

// powStepSize is the step-size law of Eq. (5) with its sanitizing cases,
// written with math.Pow at every control order: the bit oracle of
// FuzzNewStepSize.
func powStepSize(h, sErr float64, controlOrder int) float64 {
	if math.IsNaN(h) || math.IsInf(h, 0) {
		return 0
	}
	if math.IsNaN(sErr) || math.IsInf(sErr, 1) {
		return h * 0.1
	}
	factor := 10.0
	if sErr > 0 {
		factor = math.Min(10, math.Max(0.1, 0.9*math.Pow(1/sErr, 1/float64(controlOrder))))
	}
	return h * factor
}
