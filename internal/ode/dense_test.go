package ode

import (
	"math"
	"testing"

	"repro/internal/control"
	"repro/internal/la"
)

func TestHermiteExactOnCubics(t *testing.T) {
	p := func(tt float64) float64 { return 2 - tt + 3*tt*tt - 0.5*tt*tt*tt }
	dp := func(tt float64) float64 { return -1 + 6*tt - 1.5*tt*tt }
	t0, t1 := 0.3, 1.1
	x0, f0 := la.Vec{p(t0)}, la.Vec{dp(t0)}
	x1, f1 := la.Vec{p(t1)}, la.Vec{dp(t1)}
	dst := la.NewVec(1)
	for _, tt := range []float64{0.3, 0.5, 0.8, 1.1} {
		HermiteEval(dst, t0, x0, f0, t1, x1, f1, tt)
		if math.Abs(dst[0]-p(tt)) > 1e-12 {
			t.Fatalf("Hermite(%g) = %g, want %g", tt, dst[0], p(tt))
		}
	}
}

func TestHermiteZeroWidthInterval(t *testing.T) {
	dst := la.NewVec(1)
	HermiteEval(dst, 1, la.Vec{5}, la.Vec{0}, 1, la.Vec{7}, la.Vec{0}, 1)
	if dst[0] != 7 {
		t.Fatalf("degenerate interval: %g", dst[0])
	}
}

func TestDenseRunSamplesAccurately(t *testing.T) {
	in := &Integrator{Tab: BogackiShampine(), Ctrl: control.DefaultController(1e-8, 1e-8)}
	in.Init(oscillator, 0, 5, la.Vec{1, 0}, 0.01)
	times := []float64{0, 0.7, 1.3, 2.9, 4.999}
	var got []float64
	err := in.DenseRun(times, func(tt float64, x la.Vec) {
		got = append(got, x[0])
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(times) {
		t.Fatalf("got %d samples, want %d", len(got), len(times))
	}
	for i, tt := range times {
		if e := math.Abs(got[i] - math.Cos(tt)); e > 1e-5 {
			t.Fatalf("sample at t=%g: error %g", tt, e)
		}
	}
}

func TestDenseRunRejectsBadTimes(t *testing.T) {
	in := &Integrator{Tab: HeunEuler(), Ctrl: control.DefaultController(1e-6, 1e-6)}
	in.Init(decay, 0, 1, la.Vec{1}, 0.01)
	if err := in.DenseRun([]float64{0.5, 0.2}, func(float64, la.Vec) {}); err == nil {
		t.Fatal("unsorted times accepted")
	}
	if err := in.DenseRun([]float64{2}, func(float64, la.Vec) {}); err == nil {
		t.Fatal("out-of-range time accepted")
	}
}

func TestDenseRunThirdOrderAccuracy(t *testing.T) {
	// With a large forced step, the interpolation error at mid-step decays
	// like h^4 (cubic Hermite); just check it is far below the step scale.
	sample := func(maxStep float64) float64 {
		in := &Integrator{Tab: DormandPrince(), Ctrl: control.DefaultController(1e-13, 1e-13), MaxStep: maxStep}
		in.Ctrl = control.DefaultController(1e-2, 1e-2) // loose: h pinned at cap
		in.Init(oscillator, 0, 1, la.Vec{1, 0}, maxStep)
		var worst float64
		err := in.DenseRun([]float64{0.33, 0.55, 0.77}, func(tt float64, x la.Vec) {
			if e := math.Abs(x[0] - math.Cos(tt)); e > worst {
				worst = e
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return worst
	}
	e1 := sample(0.2)
	e2 := sample(0.1)
	if e1/e2 < 6 { // ~2^4 = 16 expected; allow slack for sample placement
		t.Fatalf("dense output not high-order: e(0.2)=%g e(0.1)=%g", e1, e2)
	}
}
