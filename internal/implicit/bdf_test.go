package implicit

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/ode"
	"repro/internal/problems"
)

func TestBDFStiffAccuracy(t *testing.T) {
	in := &ode.Integrator{Method: &BDF2{}, Ctrl: ode.DefaultController(1e-6, 1e-6)}
	in.Init(stiffRelax(1e4), 0, 2, la.Vec{1}, 1e-4)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(in.X()[0] - math.Cos(2)); e > 2e-4 {
		t.Fatalf("x(2) error %g", e)
	}
	if in.Stats.Steps > 4000 {
		t.Fatalf("took %d steps; not exploiting A-stability", in.Stats.Steps)
	}
}

func TestBDFNonstiffOscillator(t *testing.T) {
	osc := ode.Func{N: 2, F: func(tt float64, x, dst la.Vec) {
		dst[0] = x[1]
		dst[1] = -x[0]
	}}
	in := &ode.Integrator{Method: &BDF2{}, Ctrl: ode.DefaultController(1e-7, 1e-7)}
	in.Init(osc, 0, 2, la.Vec{1, 0}, 0.005)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if e := math.Hypot(in.X()[0]-math.Cos(2), in.X()[1]+math.Sin(2)); e > 1e-4 {
		t.Fatalf("oscillator error %g", e)
	}
}

func TestBDFSecondOrder(t *testing.T) {
	run := func(cap float64) float64 {
		in := &ode.Integrator{Ctrl: ode.DefaultController(1, 1), MaxStep: cap, MinStep: 1e-18,
			Method: &BDF2{NewtonTol: 1e-10}}
		in.Init(stiffRelax(2), 0, 1, la.Vec{1}, cap)
		if _, err := in.Run(); err != nil {
			t.Fatal(err)
		}
		return math.Abs(in.X()[0] - math.Cos(1))
	}
	e1 := run(0.04)
	e2 := run(0.02)
	order := math.Log2(e1 / e2)
	if order < 1.5 || order > 2.8 {
		t.Fatalf("BDF empirical order %.2f (e1=%g e2=%g)", order, e1, e2)
	}
}

func TestBDFVanDerPolStiff(t *testing.T) {
	p := problems.VanDerPol(1000)
	in := &ode.Integrator{Method: &BDF2{}, Ctrl: ode.DefaultController(1e-5, 1e-5)}
	in.Init(p.Sys, 0, 100, p.X0, 1e-4)
	if _, err := in.Run(); err != nil {
		t.Fatalf("BDF on stiff Van der Pol: %v (steps=%d, t=%g)", err, in.Stats.Steps, in.T())
	}
	if in.X().HasNaNOrInf() || math.Abs(in.X()[0]) > 3 {
		t.Fatalf("left the limit cycle: %v", in.X())
	}
}

func TestBDFGuardedByIBDC(t *testing.T) {
	d := core.NewIBDC()
	in := &ode.Integrator{Method: &BDF2{}, Ctrl: ode.DefaultController(1e-6, 1e-6), Validator: d}
	in.Init(stiffRelax(100), 0, 2, la.Vec{1}, 1e-3)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(in.X()[0] - math.Cos(2)); e > 2e-4 {
		t.Fatalf("guarded BDF error %g", e)
	}
	if in.Stats.RejectedValidator != in.Stats.FPRescues {
		t.Fatalf("clean run: %d rejections, %d rescues", in.Stats.RejectedValidator, in.Stats.FPRescues)
	}
}

func TestBDFFailsOnBrokenRHS(t *testing.T) {
	bad := ode.Func{N: 1, F: func(tt float64, x, dst la.Vec) { dst[0] = math.Inf(1) }}
	in := &ode.Integrator{Method: &BDF2{}, Ctrl: ode.DefaultController(1e-6, 1e-6)}
	in.Init(bad, 0, 1, la.Vec{1}, 0.1)
	if err := in.Step(); err == nil {
		t.Fatal("expected failure")
	}
}

func TestBDFRobertson(t *testing.T) {
	// The severe-stiffness benchmark: mass conservation x1+x2+x3 = 1 and
	// the known solution regime at t = 100 (x1 ~ 0.617).
	p := problems.Robertson()
	in := &ode.Integrator{Method: &BDF2{}, Ctrl: ode.DefaultController(p.TolA, p.TolR)}
	in.Init(p.Sys, p.T0, p.TEnd, p.X0, p.H0)
	if _, err := in.Run(); err != nil {
		t.Fatalf("Robertson failed: %v (t=%g steps=%d)", err, in.T(), in.Stats.Steps)
	}
	x := in.X()
	if sum := x[0] + x[1] + x[2]; math.Abs(sum-1) > 1e-5 {
		t.Fatalf("mass not conserved: %g", sum)
	}
	if math.Abs(x[0]-0.617) > 0.02 {
		t.Fatalf("x1(100) = %g, want ~0.617", x[0])
	}
	if x[1] < 0 || x[1] > 1e-4 {
		t.Fatalf("x2(100) = %g, want tiny positive", x[1])
	}
}

func TestBDFDirectAndKrylovAgree(t *testing.T) {
	run := func(noDirect bool) la.Vec {
		in := &ode.Integrator{Method: &BDF2{NoDirect: noDirect}, Ctrl: ode.DefaultController(1e-8, 1e-8)}
		in.Init(stiffRelax(500), 0, 1, la.Vec{1}, 1e-4)
		if _, err := in.Run(); err != nil {
			t.Fatal(err)
		}
		return in.X().Clone()
	}
	direct := run(false)
	kry := run(true)
	if math.Abs(direct[0]-kry[0]) > 1e-6 {
		t.Fatalf("paths disagree: %g vs %g", direct[0], kry[0])
	}
}
