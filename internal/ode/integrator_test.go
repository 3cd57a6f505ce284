package ode

import (
	"math"
	"testing"

	"repro/internal/control"
	"repro/internal/la"
)

func newTestIntegrator(tab *control.Tableau, tolA, tolR float64) *Integrator {
	return &Integrator{Tab: tab, Ctrl: control.DefaultController(tolA, tolR)}
}

func TestIntegratorDecayAccuracy(t *testing.T) {
	for _, tab := range AllTableaus() {
		if !tab.HasErrorEstimate() {
			continue // fixed-step-only methods have no controller signal
		}
		in := newTestIntegrator(tab, 1e-8, 1e-8)
		in.Init(decay, 0, 2, la.Vec{1}, 0.01)
		if _, err := in.Run(); err != nil {
			t.Fatalf("%s: %v", tab.Name, err)
		}
		got := in.X()[0]
		want := math.Exp(-2)
		if math.Abs(got-want) > 1e-5 {
			t.Errorf("%s: x(2) = %g, want %g", tab.Name, got, want)
		}
		if !in.Done() {
			t.Errorf("%s: not done at t=%g", tab.Name, in.T())
		}
	}
}

func TestIntegratorOscillatorAccuracy(t *testing.T) {
	in := newTestIntegrator(DormandPrince(), 1e-10, 1e-10)
	in.Init(oscillator, 0, 10, la.Vec{1, 0}, 0.01)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if e := math.Hypot(in.X()[0]-math.Cos(10), in.X()[1]+math.Sin(10)); e > 1e-6 {
		t.Fatalf("final error %g", e)
	}
}

func TestIntegratorAdaptsStepSize(t *testing.T) {
	// On a smooth problem with loose tolerance the controller should grow
	// the step size well beyond the initial guess.
	in := newTestIntegrator(BogackiShampine(), 1e-4, 1e-4)
	in.Init(decay, 0, 5, la.Vec{1}, 1e-5)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if in.StepSize() < 1e-3 {
		t.Fatalf("step never grew: h=%g", in.StepSize())
	}
}

func TestIntegratorRejectsOnTightTolerance(t *testing.T) {
	// Start with a large step so the first trials must be rejected.
	in := newTestIntegrator(HeunEuler(), 1e-10, 1e-10)
	in.Init(oscillator, 0, 1, la.Vec{1, 0}, 0.5)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if in.Stats.RejectedClassic == 0 {
		t.Fatal("expected classic rejections from oversized initial step")
	}
}

func TestIntegratorHonorsTEnd(t *testing.T) {
	in := newTestIntegrator(HeunEuler(), 1e-6, 1e-6)
	in.Init(decay, 0, 1.2345, la.Vec{1}, 0.5)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(in.T()-1.2345) > 1e-12 {
		t.Fatalf("final t = %.15g", in.T())
	}
}

func TestIntegratorStatsEvals(t *testing.T) {
	cs := &control.CountingSystem{Sys: decay}
	in := newTestIntegrator(HeunEuler(), 1e-6, 1e-6)
	in.Init(cs, 0, 1, la.Vec{1}, 0.01)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if in.Stats.Evals != cs.Evals {
		t.Fatalf("Stats.Evals = %d, CountingSystem = %d", in.Stats.Evals, cs.Evals)
	}
	if in.Stats.Steps == 0 || in.Stats.TrialSteps < in.Stats.Steps {
		t.Fatalf("inconsistent stats: %+v", in.Stats)
	}
}

func TestIntegratorFSALReducesEvals(t *testing.T) {
	// Bogacki-Shampine has 4 stages but FSAL: steady accepted stepping costs
	// ~3 fresh evals per step.
	cs := &control.CountingSystem{Sys: decay}
	in := newTestIntegrator(BogackiShampine(), 1e-6, 1e-6)
	in.Init(cs, 0, 2, la.Vec{1}, 0.01)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	accepted := in.Stats.Steps
	rejected := in.Stats.RejectedClassic
	perStep := float64(cs.Evals) / float64(accepted+rejected)
	if perStep > 3.6 {
		t.Fatalf("FSAL not effective: %.2f evals/trial", perStep)
	}
}

func TestIntegratorStepSizeUnderflow(t *testing.T) {
	// A right-hand side that always returns NaN forces endless halving.
	bad := control.Func{N: 1, F: func(tt float64, x, dst la.Vec) { dst[0] = math.NaN() }}
	in := newTestIntegrator(HeunEuler(), 1e-6, 1e-6)
	in.Init(bad, 0, 1, la.Vec{1}, 0.1)
	if err := in.Step(); err != ErrStepSizeUnderflow {
		t.Fatalf("err = %v, want ErrStepSizeUnderflow", err)
	}
}

func TestIntegratorHistoryGrows(t *testing.T) {
	in := newTestIntegrator(HeunEuler(), 1e-6, 1e-6)
	in.Init(decay, 0, 1, la.Vec{1}, 0.01)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if in.History().Len() < 4 {
		t.Fatalf("history too shallow: %d", in.History().Len())
	}
	// Newest history entry must be the current solution.
	if in.History().X(0)[0] != in.X()[0] {
		t.Fatal("history head != current solution")
	}
}

// alwaysRejectOnce rejects the first validation it sees, then accepts
// everything; exercises the same-h recomputation path.
type alwaysRejectOnce struct {
	rejected  bool
	sawRecomp bool
	sErrSeen  []float64
}

func (v *alwaysRejectOnce) Validate(c *control.CheckContext) control.Verdict {
	v.sErrSeen = append(v.sErrSeen, c.SErr1)
	if !v.rejected {
		v.rejected = true
		return control.VerdictReject
	}
	if c.Recomputation {
		v.sawRecomp = true
	}
	return control.VerdictAccept
}

func TestValidatorRejectionRecomputesSameH(t *testing.T) {
	v := &alwaysRejectOnce{}
	in := newTestIntegrator(HeunEuler(), 1e-6, 1e-6)
	in.Validator = v
	in.Init(decay, 0, 0.5, la.Vec{1}, 0.01)
	if err := in.Step(); err != nil {
		t.Fatal(err)
	}
	if !v.sawRecomp {
		t.Fatal("recomputation flag not set after validator rejection")
	}
	if len(v.sErrSeen) != 2 {
		t.Fatalf("validator saw %d trials, want 2", len(v.sErrSeen))
	}
	// Clean recomputation at the same h must reproduce SErr exactly —
	// the property Algorithm 1's false-positive self-detection relies on.
	if v.sErrSeen[0] != v.sErrSeen[1] {
		t.Fatalf("SErr changed across clean recomputation: %g vs %g", v.sErrSeen[0], v.sErrSeen[1])
	}
	if in.Stats.RejectedValidator != 1 {
		t.Fatalf("RejectedValidator = %d", in.Stats.RejectedValidator)
	}
}

// fpRescueValidator mimics Algorithm 1's bookkeeping.
type fpRescueValidator struct {
	lastSErr float64
	haveLast bool
	rescues  int
}

func (v *fpRescueValidator) Validate(c *control.CheckContext) control.Verdict {
	if v.haveLast && c.SErr1 == v.lastSErr {
		v.haveLast = false
		v.rescues++
		return control.VerdictFPRescue
	}
	v.lastSErr = c.SErr1
	v.haveLast = true
	return control.VerdictReject
}

func TestFPRescueCountsInStats(t *testing.T) {
	v := &fpRescueValidator{}
	in := newTestIntegrator(HeunEuler(), 1e-6, 1e-6)
	in.Validator = v
	in.Init(decay, 0, 0.2, la.Vec{1}, 0.01)
	if err := in.Step(); err != nil {
		t.Fatal(err)
	}
	if in.Stats.FPRescues != 1 || v.rescues != 1 {
		t.Fatalf("FPRescues = %d (validator %d), want 1", in.Stats.FPRescues, v.rescues)
	}
}

// fpropValidator asks for FProp and records it.
type fpropValidator struct {
	got la.Vec
}

func (v *fpropValidator) Validate(c *control.CheckContext) control.Verdict {
	v.got = c.FProp().Clone()
	return control.VerdictAccept
}

func TestFPropMatchesRHS(t *testing.T) {
	for _, tab := range []*control.Tableau{HeunEuler(), DormandPrince()} {
		v := &fpropValidator{}
		in := newTestIntegrator(tab, 1e-6, 1e-6)
		in.Validator = v
		in.Init(oscillator, 0, 1, la.Vec{1, 0}, 0.01)
		if err := in.Step(); err != nil {
			t.Fatal(err)
		}
		want := la.NewVec(2)
		oscillator.Eval(in.T(), in.X(), want)
		for i := range want {
			if math.Abs(v.got[i]-want[i]) > 1e-12 {
				t.Fatalf("%s: FProp[%d] = %g, want %g", tab.Name, i, v.got[i], want[i])
			}
		}
	}
}

func TestFPropReusedAsNextK1(t *testing.T) {
	// With a validator that calls FProp, Heun-Euler should cost only one
	// fresh eval per subsequent accepted step (K1 reused from FProp).
	cs := &control.CountingSystem{Sys: decay}
	in := newTestIntegrator(HeunEuler(), 1e-6, 1e-6)
	in.Validator = &fpropValidator{}
	in.Init(cs, 0, 0.1, la.Vec{1}, 0.001)
	if err := in.Step(); err != nil { // step 1: K1, K2, FProp = 3 evals
		t.Fatal(err)
	}
	before := cs.Evals
	if err := in.Step(); err != nil { // step 2: K1 reused; K2 + FProp = 2 evals
		t.Fatal(err)
	}
	if d := cs.Evals - before; d != 2 {
		t.Fatalf("second step cost %d evals, want 2 (FProp reuse)", d)
	}
}

func TestOnTrialObserver(t *testing.T) {
	var trials []Trial
	in := newTestIntegrator(HeunEuler(), 1e-6, 1e-6)
	in.OnTrial = func(tr *Trial) { trials = append(trials, *tr) }
	in.Init(decay, 0, 0.5, la.Vec{1}, 0.01)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if len(trials) != in.Stats.TrialSteps {
		t.Fatalf("observer saw %d trials, stats say %d", len(trials), in.Stats.TrialSteps)
	}
	accepted := 0
	for _, tr := range trials {
		if tr.Accepted {
			accepted++
		}
	}
	if accepted != in.Stats.Steps {
		t.Fatalf("observer accepted=%d, stats=%d", accepted, in.Stats.Steps)
	}
}

func TestMaxStepClamp(t *testing.T) {
	in := newTestIntegrator(HeunEuler(), 1e-2, 1e-2)
	in.MaxStep = 0.05
	in.Init(decay, 0, 1, la.Vec{1}, 0.01)
	var maxH float64
	in.OnTrial = func(tr *Trial) {
		if tr.H > maxH {
			maxH = tr.H
		}
	}
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if maxH > 0.05+1e-12 {
		t.Fatalf("step exceeded MaxStep: %g", maxH)
	}
}

func TestInjectionThroughIntegrator(t *testing.T) {
	// A hook that corrupts stage 1 massively on one specific trial should
	// cause a classic rejection (paper §IV-A: natural rejection).
	armed := true
	hook := func(stage int, tt float64, k la.Vec) int {
		if armed && stage == 1 {
			armed = false
			k[0] += 1e6
			return 1
		}
		return 0
	}
	in := newTestIntegrator(HeunEuler(), 1e-6, 1e-6)
	in.Hook = hook
	in.Init(decay, 0, 0.5, la.Vec{1}, 0.01)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if in.Stats.RejectedClassic == 0 {
		t.Fatal("huge SDC was not rejected by the classic controller")
	}
	if in.Stats.Injections != 1 {
		t.Fatalf("Injections = %d, want 1", in.Stats.Injections)
	}
	if math.Abs(in.X()[0]-math.Exp(-0.5)) > 1e-4 {
		t.Fatalf("solution corrupted despite rejection: %g", in.X()[0])
	}
}

func TestFixedStepMatchesExact(t *testing.T) {
	in := &Integrator{Tab: DormandPrince(), FixedStep: true}
	in.Init(oscillator, 0, 1, la.Vec{1, 0}, 0.01)
	for i := 0; i < 100; i++ {
		if err := in.Step(); err != nil {
			t.Fatal(err)
		}
		if in.StepSize() != 0.01 {
			t.Fatalf("step %d: h = %g, want the constant 0.01", i, in.StepSize())
		}
	}
	if math.Abs(in.T()-1) > 1e-12 || !in.Done() {
		t.Fatalf("t = %g", in.T())
	}
	if e := math.Hypot(in.X()[0]-math.Cos(1), in.X()[1]+math.Sin(1)); e > 1e-9 {
		t.Fatalf("error %g", e)
	}
}

// fixedRejectOnce rejects the first trial once.
type fixedRejectOnce struct{ done bool }

func (v *fixedRejectOnce) Validate(*control.CheckContext) control.Verdict {
	if !v.done {
		v.done = true
		return control.VerdictReject
	}
	return control.VerdictAccept
}

func TestFixedStepValidatorRetry(t *testing.T) {
	in := &Integrator{Tab: HeunEuler(), Validator: &fixedRejectOnce{}, FixedStep: true}
	in.Init(decay, 0, 1, la.Vec{1}, 0.1)
	if err := in.Step(); err != nil {
		t.Fatal(err)
	}
	if in.Stats.RejectedValidator != 1 || in.Stats.Steps != 1 || in.Stats.RejectedClassic != 0 {
		t.Fatalf("stats: %+v", in.Stats)
	}
}

func TestToleranceProportionality(t *testing.T) {
	// A healthy adaptive solver's global error tracks the tolerance: each
	// 100x tolerance tightening must reduce the error substantially.
	var prevErr float64 = math.Inf(1)
	for _, tol := range []float64{1e-4, 1e-6, 1e-8} {
		in := newTestIntegrator(BogackiShampine(), tol, tol)
		in.Init(oscillator, 0, 5, la.Vec{1, 0}, 0.01)
		if _, err := in.Run(); err != nil {
			t.Fatal(err)
		}
		e := math.Hypot(in.X()[0]-math.Cos(5), in.X()[1]+math.Sin(5))
		if e > prevErr {
			t.Fatalf("tol %g: error %g did not decrease (prev %g)", tol, e, prevErr)
		}
		if e > 100*tol*5 { // loose bound: error within two orders of tol * span
			t.Fatalf("tol %g: error %g way above tolerance", tol, e)
		}
		prevErr = e
	}
}
