package ode

import (
	"math"
	"testing"

	"repro/internal/control"
	"repro/internal/la"
)

// fillHistoryPoly pushes solutions of a polynomial trajectory x(t) = p(t)
// (componentwise distinct) at irregular times onto a fresh history.
func fillHistoryPoly(depth int, times []float64, p func(float64) la.Vec) *control.History {
	h := control.NewHistory(depth, len(p(0)))
	for i, tt := range times {
		var hs float64
		if i > 0 {
			hs = tt - times[i-1]
		}
		h.Push(tt, hs, p(tt))
	}
	return h
}

func TestLIPEstimateOrder0IsLastValue(t *testing.T) {
	h := control.NewHistory(4, 2)
	h.Push(0, 0, la.Vec{1, 2})
	h.Push(1, 1, la.Vec{3, 4})
	dst := la.NewVec(2)
	new(LIPEstimator).Estimate(dst, h, 0, 2.0)
	if dst[0] != 3 || dst[1] != 4 {
		t.Fatalf("order-0 LIP = %v", dst)
	}
}

func TestLIPEstimateExactOnPolynomials(t *testing.T) {
	// Degree-2 trajectory, order-2 LIP must be exact at any target time.
	p := func(tt float64) la.Vec { return la.Vec{1 + 2*tt - 3*tt*tt, tt * tt} }
	h := fillHistoryPoly(4, []float64{0, 0.3, 0.8, 1.0}, p)
	dst := la.NewVec(2)
	target := 1.45
	new(LIPEstimator).Estimate(dst, h, 2, target)
	want := p(target)
	for i := range dst {
		if math.Abs(dst[i]-want[i]) > 1e-12 {
			t.Fatalf("LIP order 2: dst=%v want=%v", dst, want)
		}
	}
}

func TestLIPEstimatePanicsWithoutHistory(t *testing.T) {
	h := control.NewHistory(4, 1)
	h.Push(0, 0, la.Vec{1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	new(LIPEstimator).Estimate(la.NewVec(1), h, 1, 1.0)
}

func TestBDFEstimateBackwardEuler(t *testing.T) {
	// Order 1: x~ = x_{n-1} + h f. With x_{n-1} = 2, h = 0.5, f = -4: x~ = 0.
	h := control.NewHistory(4, 1)
	h.Push(1.0, 0.2, la.Vec{2})
	dst := la.NewVec(1)
	new(BDFEstimator).Estimate(dst, h, 1, 1.5, la.Vec{-4})
	if math.Abs(dst[0]) > 1e-14 {
		t.Fatalf("BDF1 = %v, want 0", dst)
	}
}

func TestBDFEstimateExactOnPolynomials(t *testing.T) {
	// Degree-q trajectory: BDF of order q is exact given exact f = x'(t_n).
	p := func(tt float64) la.Vec { return la.Vec{2 - tt + 0.5*tt*tt*tt} }
	dp := func(tt float64) la.Vec { return la.Vec{-1 + 1.5*tt*tt} }
	times := []float64{0, 0.4, 0.7, 1.1}
	h := fillHistoryPoly(5, times, p)
	target := 1.6
	dst := la.NewVec(1)
	new(BDFEstimator).Estimate(dst, h, 3, target, dp(target))
	if math.Abs(dst[0]-p(target)[0]) > 1e-11 {
		t.Fatalf("BDF3 = %g, want %g", dst[0], p(target)[0])
	}
}

func TestBDFEstimateMatchesPaperVariableStepBDF2(t *testing.T) {
	// Cross-check against the closed-form variable-step BDF2 used in §V-B.
	hn, hn1 := 0.3, 0.5
	om := hn / hn1
	tn := 2.0
	x1, x2 := 1.7, -0.4 // x_{n-1}, x_{n-2}
	f := 0.9
	h := control.NewHistory(4, 1)
	h.Push(tn-hn-hn1, 0, la.Vec{x2})
	h.Push(tn-hn, hn1, la.Vec{x1})
	dst := la.NewVec(1)
	new(BDFEstimator).Estimate(dst, h, 2, tn, la.Vec{f})
	want := (1+om)*(1+om)/(1+2*om)*x1 - om*om/(1+2*om)*x2 + hn*(1+om)/(1+2*om)*f
	if math.Abs(dst[0]-want) > 1e-12 {
		t.Fatalf("BDF2 = %g, want %g", dst[0], want)
	}
}

func TestBDFEstimatePanics(t *testing.T) {
	h := control.NewHistory(4, 1)
	h.Push(0, 0, la.Vec{1})
	for name, fn := range map[string]func(){
		"order 0":            func() { new(BDFEstimator).Estimate(la.NewVec(1), h, 0, 1, la.Vec{0}) },
		"not enough history": func() { new(BDFEstimator).Estimate(la.NewVec(1), h, 2, 1, la.Vec{0}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMaxOrders(t *testing.T) {
	h := control.NewHistory(8, 1)
	if MaxLIPOrder(h, 3) != -1 || MaxBDFOrder(h, 3) != 0 {
		t.Fatal("empty history max orders wrong")
	}
	h.Push(0, 0, la.Vec{1})
	h.Push(1, 1, la.Vec{2})
	if MaxLIPOrder(h, 3) != 1 {
		t.Fatalf("MaxLIPOrder = %d", MaxLIPOrder(h, 3))
	}
	if MaxBDFOrder(h, 3) != 2 {
		t.Fatalf("MaxBDFOrder = %d", MaxBDFOrder(h, 3))
	}
	h.Push(2, 1, la.Vec{3})
	h.Push(3, 1, la.Vec{4})
	h.Push(4, 1, la.Vec{5})
	if MaxLIPOrder(h, 3) != 3 || MaxBDFOrder(h, 3) != 3 {
		t.Fatal("caps not applied")
	}
}

// The BDF estimate converges to the true solution at order q: error ~ h^(q+1)
// for the interpolation error at the endpoint... verify decrease empirically.
func TestBDFEstimateAccuracyImprovesWithOrder(t *testing.T) {
	exact := func(tt float64) float64 { return math.Exp(-tt) }
	times := []float64{0, 0.05, 0.11, 0.18}
	h := control.NewHistory(5, 1)
	for i, tt := range times {
		var hs float64
		if i > 0 {
			hs = tt - times[i-1]
		}
		h.Push(tt, hs, la.Vec{exact(tt)})
	}
	target := 0.24
	f := la.Vec{-exact(target)}
	var errs []float64
	for q := 1; q <= 3; q++ {
		dst := la.NewVec(1)
		new(BDFEstimator).Estimate(dst, h, q, target, f)
		errs = append(errs, math.Abs(dst[0]-exact(target)))
	}
	if !(errs[2] < errs[1] && errs[1] < errs[0]) {
		t.Fatalf("BDF errors not decreasing with order: %v", errs)
	}
}
