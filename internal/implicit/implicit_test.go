package implicit

import (
	"math"
	"testing"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/krylov"
	"repro/internal/la"
	"repro/internal/ode"
	"repro/internal/problems"
)

// stiffRelax is x' = -lambda (x - cos t) - sin t, exact x = cos t for
// x(0) = 1, with stiffness lambda.
func stiffRelax(lambda float64) control.System {
	return control.Func{N: 1, F: func(t float64, x, dst la.Vec) {
		dst[0] = -lambda*(x[0]-math.Cos(t)) - math.Sin(t)
	}}
}

func TestGammaValue(t *testing.T) {
	if math.Abs(Gamma-(1-1/math.Sqrt2)) > 1e-15 {
		t.Fatalf("Gamma = %g", Gamma)
	}
}

func TestStiffAccuracy(t *testing.T) {
	// lambda = 1e4: an explicit method would need h ~ 2e-4; SDIRK2 cruises.
	in := &ode.Integrator{Method: &SDIRK2{}, Ctrl: control.DefaultController(1e-6, 1e-6)}
	in.Init(stiffRelax(1e4), 0, 2, la.Vec{1}, 1e-4)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(in.X()[0] - math.Cos(2)); e > 1e-4 {
		t.Fatalf("x(2) = %g, error %g", in.X()[0], e)
	}
	// The step count must beat the explicit stability bound (2/1e4 * 2 span
	// = 10000 steps) by a wide margin.
	if in.Stats.Steps > 2000 {
		t.Fatalf("took %d steps; not exploiting L-stability", in.Stats.Steps)
	}
}

func TestNonstiffAccuracy(t *testing.T) {
	osc := control.Func{N: 2, F: func(tt float64, x, dst la.Vec) {
		dst[0] = x[1]
		dst[1] = -x[0]
	}}
	in := &ode.Integrator{Method: &SDIRK2{}, Ctrl: control.DefaultController(1e-8, 1e-8)}
	in.Init(osc, 0, 3, la.Vec{1, 0}, 0.01)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if e := math.Hypot(in.X()[0]-math.Cos(3), in.X()[1]+math.Sin(3)); e > 1e-5 {
		t.Fatalf("oscillator error %g", e)
	}
}

func TestSecondOrderConvergence(t *testing.T) {
	// Fixed-step behavior approximated with MaxStep pinning: halving the
	// cap should cut the error by ~4.
	run := func(cap float64) float64 {
		// Loose controller tolerances pin h at the cap; the Newton and
		// Krylov tolerances are tightened explicitly so the stage solves
		// do not pollute the truncation-error measurement.
		in := &ode.Integrator{Ctrl: control.DefaultController(1, 1), MaxStep: cap, MinStep: 1e-18,
			Method: &SDIRK2{NewtonTol: 1e-10, KrylovOpts: krylov.Options{Tol: 1e-12}}}
		in.Init(stiffRelax(2), 0, 1, la.Vec{1}, cap)
		if _, err := in.Run(); err != nil {
			t.Fatal(err)
		}
		return math.Abs(in.X()[0] - math.Cos(1))
	}
	e1 := run(0.05)
	e2 := run(0.025)
	order := math.Log2(e1 / e2)
	if order < 1.6 || order > 2.6 {
		t.Fatalf("empirical order %.2f (e1=%g e2=%g), want ~2", order, e1, e2)
	}
}

func TestVanDerPolVeryStiff(t *testing.T) {
	p := problems.VanDerPol(1000)
	m := &SDIRK2{}
	in := &ode.Integrator{Method: m, Ctrl: control.DefaultController(1e-5, 1e-5)}
	in.Init(p.Sys, 0, 200, p.X0, 1e-4)
	if _, err := in.Run(); err != nil {
		t.Fatalf("stiff Van der Pol failed: %v (steps=%d)", err, in.Stats.Steps)
	}
	if in.X().HasNaNOrInf() || math.Abs(in.X()[0]) > 3 {
		t.Fatalf("solution left the limit cycle: %v", in.X())
	}
	newton, krylov := m.Iterations()
	t.Logf("steps=%d newton=%d krylov=%d evals=%d", in.Stats.Steps, newton, krylov, in.Stats.Evals)
}

func TestHistoryMaintained(t *testing.T) {
	in := &ode.Integrator{Method: &SDIRK2{}, Ctrl: control.DefaultController(1e-6, 1e-6)}
	in.Init(stiffRelax(10), 0, 1, la.Vec{1}, 0.01)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if in.History().Len() < 4 {
		t.Fatalf("history too shallow: %d", in.History().Len())
	}
	if in.History().X(0)[0] != in.X()[0] {
		t.Fatal("history head != current solution")
	}
}

func TestDoubleCheckGuardsImplicitSolver(t *testing.T) {
	// The paper's future-work scenario: IBDC validating an implicit solver.
	// Clean run first: FP rescues must recover every double-check rejection.
	d := core.NewIBDC()
	in := &ode.Integrator{Method: &SDIRK2{}, Ctrl: control.DefaultController(1e-6, 1e-6), Validator: d}
	in.Init(stiffRelax(100), 0, 2, la.Vec{1}, 1e-3)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(in.X()[0] - math.Cos(2)); e > 1e-4 {
		t.Fatalf("guarded implicit run error %g", e)
	}
	if in.Stats.RejectedValidator != in.Stats.FPRescues {
		t.Fatalf("%d rejections but %d rescues on clean run", in.Stats.RejectedValidator, in.Stats.FPRescues)
	}
}

func TestDoubleCheckCatchesCorruptedImplicitStep(t *testing.T) {
	// Corrupt the proposed solution of one step (by corrupting the stored
	// state via a wrapped system is intrusive; instead wrap Validate to
	// corrupt XProp before IBDC sees it — equivalent to an SDC landing in
	// the result vector between computation and validation).
	d := core.NewIBDC()
	var armed bool
	var caught bool
	wrapper := validatorFunc(func(c *control.CheckContext) control.Verdict {
		if armed {
			armed = false
			c.XProp[0] += 0.25
		}
		v := d.Validate(c)
		if v == control.VerdictReject {
			caught = true
		}
		return v
	})
	in := &ode.Integrator{Method: &SDIRK2{}, Ctrl: control.DefaultController(1e-6, 1e-6), Validator: wrapper}
	in.Init(stiffRelax(100), 0, 2, la.Vec{1}, 1e-3)
	for i := 0; i < 20; i++ {
		if err := in.Step(); err != nil {
			t.Fatal(err)
		}
	}
	armed = true
	for i := 0; i < 3; i++ {
		if err := in.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if !caught {
		t.Fatal("IBDC missed a corrupted implicit step")
	}
	// The corruption must not have landed in the accepted trajectory.
	if e := math.Abs(in.X()[0] - math.Cos(in.T())); e > 1e-3 {
		t.Fatalf("corruption leaked into the solution: error %g", e)
	}
}

type validatorFunc func(*control.CheckContext) control.Verdict

func (f validatorFunc) Validate(c *control.CheckContext) control.Verdict { return f(c) }

func TestBrusselatorMediumSystem(t *testing.T) {
	// A 64-dimensional stiff method-of-lines system exercises the GMRES
	// path (m > restart length); NoDirect pins the matrix-free route.
	p := problems.Brusselator1D(32)
	m := &SDIRK2{NoDirect: true}
	in := &ode.Integrator{Method: m, Ctrl: control.DefaultController(1e-4, 1e-4)}
	in.Init(p.Sys, 0, 1, p.X0, 1e-3)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range in.X() {
		if math.IsNaN(v) || v < -1 || v > 10 {
			t.Fatalf("component %d out of range: %g", i, v)
		}
	}
	if _, krylov := m.Iterations(); krylov == 0 {
		t.Fatal("GMRES never ran")
	}
}

func TestDirectAndKrylovAgree(t *testing.T) {
	// The two Newton linear-solver paths must land on the same trajectory.
	run := func(noDirect bool) la.Vec {
		in := &ode.Integrator{Method: &SDIRK2{NoDirect: noDirect}, Ctrl: control.DefaultController(1e-8, 1e-8)}
		in.Init(stiffRelax(500), 0, 1, la.Vec{1}, 1e-4)
		if _, err := in.Run(); err != nil {
			t.Fatal(err)
		}
		return in.X().Clone()
	}
	direct := run(false)
	krylov := run(true)
	if math.Abs(direct[0]-krylov[0]) > 1e-6 {
		t.Fatalf("paths disagree: %g vs %g", direct[0], krylov[0])
	}
	if e := math.Abs(direct[0] - math.Cos(1)); e > 1e-5 {
		t.Fatalf("direct path inaccurate: %g", e)
	}
}

func TestStepSizeUnderflowOnBrokenRHS(t *testing.T) {
	bad := control.Func{N: 1, F: func(tt float64, x, dst la.Vec) { dst[0] = math.NaN() }}
	in := &ode.Integrator{Method: &SDIRK2{}, Ctrl: control.DefaultController(1e-6, 1e-6)}
	in.Init(bad, 0, 1, la.Vec{1}, 0.1)
	if err := in.Step(); err == nil {
		t.Fatal("expected failure on NaN right-hand side")
	}
}
