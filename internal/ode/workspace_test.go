package ode

import (
	"math"
	"testing"

	"repro/internal/control"
	"repro/internal/la"
)

// Regression: step-size underflow can collapse neighbouring history times
// onto the same float. The Lagrange weights then divide by zero and the
// second estimate is poisoned with NaN/Inf, which a plain `sErr2 > 1` test
// silently accepts — the estimator must instead fall back to the largest
// non-degenerate order.
func TestLIPEstimateDegenerateNodesFallsBack(t *testing.T) {
	h := control.NewHistory(4, 1)
	h.Push(0.5, 0, la.Vec{1})
	h.Push(0.5, 0, la.Vec{1}) // duplicated node time (h underflow)
	h.Push(1.0, 0.5, la.Vec{2})
	var e LIPEstimator
	dst := la.NewVec(1)
	q := e.Estimate(dst, h, 2, 1.5)
	// Nodes newest-first are [1.0, 0.5, 0.5]: the longest distinct prefix
	// has two nodes, so the estimate degrades to order 1 — the linear
	// extrapolation through (0.5, 1) and (1.0, 2), which is exactly 3 at 1.5.
	if q != 1 {
		t.Fatalf("effective order = %d, want 1", q)
	}
	if dst[0] != 3 {
		t.Fatalf("degenerate-history LIP = %g, want 3", dst[0])
	}
}

func TestLIPEstimateAllNodesCoincidentUsesLastValue(t *testing.T) {
	h := control.NewHistory(4, 1)
	h.Push(0.5, 0, la.Vec{7})
	h.Push(0.5, 0, la.Vec{9})
	var e LIPEstimator
	dst := la.NewVec(1)
	if q := e.Estimate(dst, h, 1, 0.8); q != 0 || dst[0] != 9 {
		t.Fatalf("fully degenerate LIP: order %d value %g, want order 0 value 9", q, dst[0])
	}
}

func TestBDFEstimateDegenerateNodesFallsBack(t *testing.T) {
	// The proposed time t_n + h collapsing onto t_n makes even order 1
	// degenerate: the estimate must degrade to the last accepted value
	// instead of dividing by zero.
	h := control.NewHistory(4, 1)
	h.Push(1.0, 0.5, la.Vec{3})
	var e BDFEstimator
	dst := la.NewVec(1)
	if q := e.Estimate(dst, h, 1, 1.0, la.Vec{42}); q != 0 || dst[0] != 3 {
		t.Fatalf("degenerate BDF: order %d value %g, want order 0 value 3", q, dst[0])
	}
}

func TestBDFEstimateDuplicateDeepHistoryFallsBack(t *testing.T) {
	h := control.NewHistory(5, 1)
	h.Push(0.5, 0, la.Vec{1})
	h.Push(0.5, 0, la.Vec{1}) // duplicated node time deep in the history
	h.Push(1.0, 0.5, la.Vec{2})
	f := la.Vec{1.5}
	var e BDFEstimator
	dst := la.NewVec(1)
	q := e.Estimate(dst, h, 3, 1.5, f)
	if q != 2 {
		t.Fatalf("effective order = %d, want 2", q)
	}
	// The fallback must agree bit-for-bit with an explicit order-2 estimate
	// over the same (distinct) nodes.
	want := la.NewVec(1)
	new(BDFEstimator).Estimate(want, h, 2, 1.5, f)
	if dst[0] != want[0] {
		t.Fatalf("fallback BDF = %g, explicit order-2 = %g", dst[0], want[0])
	}
}

// One estimator workspace reused across shrinking and regrowing orders must
// reproduce a freshly constructed estimator bit for bit.
func TestEstimatorWorkspaceReuseMatchesFresh(t *testing.T) {
	p := func(tt float64) la.Vec { return la.Vec{math.Sin(tt), math.Cos(2 * tt)} }
	h := fillHistoryPoly(6, []float64{0, 0.3, 0.55, 0.9, 1.2}, p)
	f := la.Vec{0.4, -1.1}
	target := 1.5
	var lip LIPEstimator
	var bdf BDFEstimator
	got := la.NewVec(2)
	want := la.NewVec(2)
	for _, q := range []int{3, 1, 2, 3, 0} {
		lip.Estimate(got, h, q, target)
		new(LIPEstimator).Estimate(want, h, q, target)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("LIP q=%d component %d: reused %g, fresh %g", q, i, got[i], want[i])
			}
		}
		if q < 1 {
			continue
		}
		bdf.Estimate(got, h, q, target, f)
		new(BDFEstimator).Estimate(want, h, q, target, f)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("BDF q=%d component %d: reused %g, fresh %g", q, i, got[i], want[i])
			}
		}
	}
}

func TestEstimatorsAllocationFree(t *testing.T) {
	p := func(tt float64) la.Vec { return la.Vec{math.Sin(tt), math.Cos(2 * tt)} }
	h := fillHistoryPoly(6, []float64{0, 0.3, 0.55, 0.9, 1.2}, p)
	f := la.Vec{0.4, -1.1}
	dst := la.NewVec(2)
	var lip LIPEstimator
	var bdf BDFEstimator
	lip.Estimate(dst, h, 3, 1.5) // grow the workspaces once
	bdf.Estimate(dst, h, 3, 1.5, f)
	if n := testing.AllocsPerRun(200, func() {
		for q := 1; q <= 3; q++ {
			lip.Estimate(dst, h, q, 1.5)
			bdf.Estimate(dst, h, q, 1.5, f)
		}
	}); n != 0 {
		t.Fatalf("warm estimators allocate %v times per round, want 0", n)
	}
}

// Regression: Dim reported the length of an internal buffer instead of
// asking the system, so a stale or refactored buffer could skew it.
func TestStepperDimReportsSystemDim(t *testing.T) {
	s := NewStepper(HeunEuler(), oscillator)
	if s.Dim() != oscillator.Dim() {
		t.Fatalf("Stepper.Dim = %d, want %d", s.Dim(), oscillator.Dim())
	}
}

func TestStepperRetargetMatchesFresh(t *testing.T) {
	s := NewStepper(BogackiShampine(), decay)
	s.Trial(0, 0.1, la.Vec{1}, nil, nil)

	// Dimension change: buffers are rebuilt.
	s.Retarget(oscillator)
	if s.Dim() != 2 {
		t.Fatalf("retargeted Dim = %d, want 2", s.Dim())
	}
	x := la.Vec{1, 0}
	got := s.Trial(0, 0.1, x, nil, nil)
	want := NewStepper(BogackiShampine(), oscillator).Trial(0, 0.1, x, nil, nil)
	for i := range want.XProp {
		if got.XProp[i] != want.XProp[i] || got.ErrVec[i] != want.ErrVec[i] {
			t.Fatalf("retargeted trial differs from fresh stepper at %d", i)
		}
	}

	// Same dimension: the stage storage is recycled in place.
	k0 := &s.K[0][0]
	s.Retarget(oscillator)
	if &s.K[0][0] != k0 {
		t.Fatal("same-dimension Retarget reallocated the stage storage")
	}
}

// Re-Init on a recycled integrator must reproduce a fresh integrator's run
// bit for bit — the property the campaign workers' scratch arenas rely on.
func TestIntegratorReInitMatchesFresh(t *testing.T) {
	run := func(in *Integrator) (la.Vec, Stats) {
		in.Init(oscillator, 0, 3, la.Vec{1, 0}, 0.01)
		if _, err := in.Run(); err != nil {
			t.Fatal(err)
		}
		return in.X().Clone(), in.Stats
	}
	reused := newTestIntegrator(BogackiShampine(), 1e-8, 1e-8)
	run(reused)                  // populate the internal buffers
	got, gotStats := run(reused) // recycled run
	want, wantStats := run(newTestIntegrator(BogackiShampine(), 1e-8, 1e-8))
	if gotStats != wantStats {
		t.Fatalf("recycled stats %+v, fresh %+v", gotStats, wantStats)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("component %d: recycled %g, fresh %g", i, got[i], want[i])
		}
	}
}
