package ode

import (
	"math"
	"testing"

	"repro/internal/control"
	"repro/internal/la"
)

func TestDefaultControllerSettings(t *testing.T) {
	c := control.DefaultController(1e-4, 1e-5)
	// The law's constants alpha = 0.9, alphaMin = 0.1, alphaMax = 10.
	if a, lo, hi := c.NewStepSize(1, 1, 1), c.NewStepSize(1, 1e12, 1), c.NewStepSize(1, 1e-12, 1); a != 0.9 || lo != 0.1 || hi != 10 {
		t.Fatalf("step factors %g, %g, %g, want 0.9, 0.1, 10", a, lo, hi)
	}
	if c.TolA != 1e-4 || c.TolR != 1e-5 {
		t.Fatalf("tolerances wrong: %+v", c)
	}
}

func TestWeightsFormula(t *testing.T) {
	c := control.DefaultController(1e-3, 1e-2)
	w := la.NewVec(2)
	c.Weights(w, la.Vec{-5, 0})
	if math.Abs(w[0]-(1e-3+1e-2*5)) > 1e-16 || w[1] != 1e-3 {
		t.Fatalf("weights = %v", w)
	}
}

func TestScaledErrorNormChoice(t *testing.T) {
	c := control.DefaultController(1, 0)
	e := la.Vec{3, 4}
	w := la.Vec{1, 1}
	if got := c.ScaledError(e, w); math.Abs(got-math.Sqrt(12.5)) > 1e-14 {
		t.Fatalf("WRMS scaled error = %g", got)
	}
	c.MaxNorm = true
	if got := c.ScaledError(e, w); got != 4 {
		t.Fatalf("max-norm scaled error = %g", got)
	}
}

func TestScaledDiff(t *testing.T) {
	c := control.DefaultController(1, 0)
	a, b := la.Vec{2, 2}, la.Vec{1, 1}
	w := la.Vec{1, 1}
	if got := c.ScaledDiff(a, b, w); math.Abs(got-1) > 1e-14 {
		t.Fatalf("ScaledDiff = %g", got)
	}
}

func TestNewStepSizeLaw(t *testing.T) {
	c := control.DefaultController(1e-6, 1e-6)
	// SErr = 1: factor = 0.9.
	if got := c.NewStepSize(1, 1, 2); math.Abs(got-0.9) > 1e-14 {
		t.Fatalf("h_new(SErr=1) = %g, want 0.9", got)
	}
	// Tiny SErr: capped at alphaMax = 10.
	if got := c.NewStepSize(1, 1e-12, 2); got != 10 {
		t.Fatalf("h_new(SErr->0) = %g, want 10", got)
	}
	// Huge SErr: floored at alphaMin = 0.1.
	if got := c.NewStepSize(1, 1e12, 2); math.Abs(got-0.1) > 1e-14 {
		t.Fatalf("h_new(SErr->inf) = %g, want 0.1", got)
	}
	// Zero SErr treated as the max increase.
	if got := c.NewStepSize(2, 0, 2); got != 20 {
		t.Fatalf("h_new(SErr=0) = %g, want 20", got)
	}
}

func TestNewStepSizeMonotonicInSErr(t *testing.T) {
	c := control.DefaultController(1e-6, 1e-6)
	prev := math.Inf(1)
	for _, s := range []float64{1e-6, 1e-3, 0.1, 0.5, 1, 2, 10, 1e3} {
		got := c.NewStepSize(1, s, 3)
		if got > prev {
			t.Fatalf("step factor not monotone at SErr=%g: %g > %g", s, got, prev)
		}
		prev = got
	}
}

func TestNewStepSizeControlOrderEffect(t *testing.T) {
	// Higher control order reacts less aggressively to the same error.
	c := control.DefaultController(1e-6, 1e-6)
	low := c.NewStepSize(1, 4, 2)  // factor 0.9*(1/4)^(1/2) = 0.45
	high := c.NewStepSize(1, 4, 5) // factor 0.9*(1/4)^(1/5) ~ 0.68
	if !(high > low) {
		t.Fatalf("expected gentler reduction at higher order: %g vs %g", high, low)
	}
	if math.Abs(low-0.45) > 1e-12 {
		t.Fatalf("low = %g, want 0.45", low)
	}
}
