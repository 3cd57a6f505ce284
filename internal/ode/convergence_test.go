package ode

import (
	"math"
	"testing"

	"repro/internal/control"
	"repro/internal/la"
)

// decay is x' = -x with exact solution exp(-t).
var decay = control.Func{N: 1, F: func(t float64, x, dst la.Vec) { dst[0] = -x[0] }}

// oscillator is x” = -x as a first-order system; exact (cos t, -sin t).
var oscillator = control.Func{N: 2, F: func(t float64, x, dst la.Vec) {
	dst[0] = x[1]
	dst[1] = -x[0]
}}

// fixedStepError integrates the oscillator over [0, 2] with n fixed steps
// using the propagated weights and returns the final error.
func fixedStepError(tab *control.Tableau, n int) float64 {
	st := NewStepper(tab, oscillator)
	x := la.Vec{1, 0}
	h := 2.0 / float64(n)
	t := 0.0
	for i := 0; i < n; i++ {
		res := st.Trial(t, h, x, nil, nil)
		x.CopyFrom(res.XProp)
		t += h
	}
	return math.Hypot(x[0]-math.Cos(2), x[1]+math.Sin(2))
}

// embeddedStepError is fixedStepError for the embedded (BHat) solution.
func embeddedStepError(tab *control.Tableau, n int) float64 {
	emb := &control.Tableau{
		Name: tab.Name + "-embedded",
		A:    tab.A, B: tab.BHat, BHat: tab.B, C: tab.C,
		Order: tab.EmbeddedOrder, EmbeddedOrder: tab.Order,
	}
	return fixedStepError(emb, n)
}

// TestEmpiricalOrder verifies the convergence order of every pair by
// halving the step size and checking the error ratio approaches 2^p.
func TestEmpiricalOrder(t *testing.T) {
	for _, tab := range AllTableaus() {
		n := 64
		e1 := fixedStepError(tab, n)
		e2 := fixedStepError(tab, 2*n)
		got := math.Log2(e1 / e2)
		if math.Abs(got-float64(tab.Order)) > 0.35 {
			t.Errorf("%s: empirical order %.2f, want %d (e1=%g e2=%g)", tab.Name, got, tab.Order, e1, e2)
		}
	}
}

// TestEmbeddedEmpiricalOrder verifies the embedded solutions converge at
// their stated (lower or higher) order.
func TestEmbeddedEmpiricalOrder(t *testing.T) {
	for _, tab := range AllTableaus() {
		n := 64
		e1 := embeddedStepError(tab, n)
		e2 := embeddedStepError(tab, 2*n)
		got := math.Log2(e1 / e2)
		if math.Abs(got-float64(tab.EmbeddedOrder)) > 0.45 {
			t.Errorf("%s embedded: empirical order %.2f, want %d", tab.Name, got, tab.EmbeddedOrder)
		}
	}
}

// TestErrorEstimateOrder verifies the error estimate h*sum (b-bhat) K scales
// as h^(min(p,q)+1) per step.
func TestErrorEstimateOrder(t *testing.T) {
	for _, tab := range Tableaus() {
		st := NewStepper(tab, oscillator)
		x := la.Vec{1, 0}
		est := func(h float64) float64 {
			res := st.Trial(0, h, x, nil, nil)
			return la.Vec(res.ErrVec).Norm2()
		}
		h := 0.1
		r := math.Log2(est(h) / est(h/2))
		want := float64(tab.ControlOrder())
		if math.Abs(r-want) > 0.3 {
			t.Errorf("%s: error estimate order %.2f, want %g", tab.Name, r, want)
		}
	}
}

func TestFSALStageIsFProp(t *testing.T) {
	for _, tab := range []*control.Tableau{BogackiShampine(), DormandPrince()} {
		st := NewStepper(tab, oscillator)
		x := la.Vec{0.3, -0.8}
		res := st.Trial(0.5, 0.05, x, nil, nil)
		if res.FProp == nil {
			t.Fatalf("%s: no FProp from FSAL pair", tab.Name)
		}
		want := la.NewVec(2)
		oscillator.Eval(0.55, res.XProp, want)
		for i := range want {
			if math.Abs(res.FProp[i]-want[i]) > 1e-12 {
				t.Errorf("%s: FProp[%d] = %g, want %g", tab.Name, i, res.FProp[i], want[i])
			}
		}
	}
}

func TestTrialReusesK1(t *testing.T) {
	tab := HeunEuler()
	st := NewStepper(tab, decay)
	x := la.Vec{2}
	k1 := la.Vec{-2} // f(0, 2)
	evals := 0
	counting := control.Func{N: 1, F: func(t float64, x, dst la.Vec) { evals++; dst[0] = -x[0] }}
	st2 := NewStepper(tab, counting)
	res := st2.Trial(0, 0.1, x, k1, nil)
	if evals != 1 {
		t.Fatalf("expected 1 fresh eval with reused K1, got %d", evals)
	}
	if res.Evals != 1 {
		t.Fatalf("res.Evals = %d, want 1", res.Evals)
	}
	// Same answer as computing K1 fresh.
	resFresh := st.Trial(0, 0.1, x, nil, nil)
	if math.Abs(res.XProp[0]-resFresh.XProp[0]) > 1e-15 {
		t.Fatalf("reused-K1 result differs: %g vs %g", res.XProp[0], resFresh.XProp[0])
	}
}

func TestStageHookSeesAllStages(t *testing.T) {
	tab := DormandPrince()
	st := NewStepper(tab, oscillator)
	var stages []int
	hook := func(stage int, tt float64, k la.Vec) int {
		stages = append(stages, stage)
		return 0
	}
	st.Trial(0, 0.01, la.Vec{1, 0}, nil, hook)
	if len(stages) != 7 {
		t.Fatalf("hook called %d times, want 7", len(stages))
	}
	for i, s := range stages {
		if s != i {
			t.Fatalf("stage order %v", stages)
		}
	}
}

func TestStageHookInjectionCount(t *testing.T) {
	tab := HeunEuler()
	st := NewStepper(tab, decay)
	hook := func(stage int, tt float64, k la.Vec) int {
		if stage == 1 {
			k[0] *= 2
			return 1
		}
		return 0
	}
	res := st.Trial(0, 0.1, la.Vec{1}, nil, hook)
	if res.Injections != 1 {
		t.Fatalf("Injections = %d, want 1", res.Injections)
	}
	if res.LastStageInjections != 1 {
		t.Fatalf("LastStageInjections = %d, want 1", res.LastStageInjections)
	}
}

// TestQuadratureExactness: for pure time-dependent right-hand sides
// f(t) = t^k, an RK method of order p integrates exactly when k < p
// (the quadrature order conditions sum b_i c_i^k = 1/(k+1)).
func TestQuadratureExactness(t *testing.T) {
	for _, tab := range AllTableaus() {
		for k := 0; k < tab.Order && k < 4; k++ {
			kk := k
			sys := control.Func{N: 1, F: func(tt float64, x, dst la.Vec) { dst[0] = math.Pow(tt, float64(kk)) }}
			st := NewStepper(tab, sys)
			x := la.Vec{0}
			// One big step from t=0.5 with h=0.7.
			res := st.Trial(0.5, 0.7, x, nil, nil)
			exact := (math.Pow(1.2, float64(kk+1)) - math.Pow(0.5, float64(kk+1))) / float64(kk+1)
			if math.Abs(res.XProp[0]-exact) > 1e-12 {
				t.Errorf("%s: integral of t^%d = %.12f, want %.12f", tab.Name, kk, res.XProp[0], exact)
			}
		}
	}
}

// TestStepDeterminism: identical inputs produce bitwise-identical trial
// results — the property the false-positive self-detection depends on.
func TestStepDeterminism(t *testing.T) {
	tab := DormandPrince()
	st1 := NewStepper(tab, oscillator)
	st2 := NewStepper(tab, oscillator)
	x := la.Vec{0.3, -0.7}
	r1 := st1.Trial(1.5, 0.037, x, nil, nil)
	r2 := st2.Trial(1.5, 0.037, x, nil, nil)
	for i := range r1.XProp {
		if r1.XProp[i] != r2.XProp[i] || r1.ErrVec[i] != r2.ErrVec[i] {
			t.Fatalf("nondeterministic trial at component %d", i)
		}
	}
}
