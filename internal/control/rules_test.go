package control

import (
	"math"
	"testing"
)

// Regression for the NaN fall-through found by the floatcmp analyzer: the
// classic guard was `sErr > 1`, which is false for NaN, so a corrupted
// scaled-error reduction silently accepted the step. A NaN must reject
// with maximum contraction.
func TestClassicRejectNaNFallThrough(t *testing.T) {
	if !ClassicReject(math.NaN()) {
		t.Fatal("NaN scaled error accepted: the corrupted reduction fell through the ordered comparison")
	}
	var c Controller
	if h := c.RejectStepSize(1, math.NaN(), 2); h != 0.1 {
		t.Fatalf("NaN rejection factor = %g, want maximum contraction 0.1", h)
	}
}

func TestClassicRejectVerdicts(t *testing.T) {
	cases := []struct {
		sErr   float64
		reject bool
	}{
		{0, false},
		{0.5, false},
		{1, false},
		{1.0000001, true},
		{4, true},
		{math.Inf(1), true},
	}
	var c Controller
	for _, tc := range cases {
		if got := ClassicReject(tc.sErr); got != tc.reject {
			t.Errorf("ClassicReject(%g) = %v, want %v", tc.sErr, got, tc.reject)
		}
		if fac := c.RejectStepSize(1, tc.sErr, 2); tc.reject && !(fac >= 0.1 && fac <= 1) {
			t.Errorf("RejectStepSize factor at SErr %g = %g outside [0.1, 1]", tc.sErr, fac)
		}
	}
	// +Inf (a NaN/Inf-poisoned proposal) contracts maximally; the factor
	// must be well-defined even though 1/SErr underflows to 0.
	if fac := c.RejectStepSize(1, math.Inf(1), 2); fac != 0.1 {
		t.Errorf("RejectStepSize factor at SErr +Inf = %g, want maximum contraction 0.1", fac)
	}
}

func TestDetectorRejectNaN(t *testing.T) {
	if !DetectorReject(math.NaN()) {
		t.Fatal("NaN second estimate accepted: the check fell through the ordered comparison")
	}
	if DetectorReject(0.9) {
		t.Error("DetectorReject(0.9) = true, want accept")
	}
	if !DetectorReject(1.1) {
		t.Error("DetectorReject(1.1) = false, want reject")
	}
}

func TestNewStepSizeFactorBounds(t *testing.T) {
	var c Controller
	for _, sErr := range []float64{0, 1e-300, 1e-6, 0.5, 1} {
		fac := c.NewStepSize(1, sErr, 2)
		if math.IsNaN(fac) || fac < 0.1 || fac > 10 {
			t.Errorf("NewStepSize factor at SErr %g = %g outside [0.1, 10]", sErr, fac)
		}
	}
	// A vanishing scaled error hits the alphaMax cap, not +Inf.
	if fac := c.NewStepSize(1, 0, 2); fac != 10 {
		t.Errorf("NewStepSize factor at SErr 0 = %g, want the cap 10", fac)
	}
}
