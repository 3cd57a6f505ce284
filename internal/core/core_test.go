package core

import (
	"math"
	"testing"

	"repro/internal/control"
	"repro/internal/inject"
	"repro/internal/la"
	"repro/internal/ode"
	"repro/internal/xrand"
)

var decay = control.Func{N: 1, F: func(t float64, x, dst la.Vec) { dst[0] = -x[0] }}

var oscillator = control.Func{N: 2, F: func(t float64, x, dst la.Vec) {
	dst[0] = x[1]
	dst[1] = -x[0]
}}

func runGuarded(t *testing.T, tab *control.Tableau, v control.Validator, hook control.StageHook, tEnd float64) *ode.Integrator {
	t.Helper()
	in := &ode.Integrator{Tab: tab, Ctrl: control.DefaultController(1e-6, 1e-6), Validator: v, Hook: hook}
	in.Init(oscillator, 0, tEnd, la.Vec{1, 0}, 0.001)
	if _, err := in.Run(); err != nil {
		t.Fatalf("run failed: %v", err)
	}
	return in
}

func TestStrategyOrderRanges(t *testing.T) {
	if lo, hi := (LIP{}).OrderRange(); lo != 0 || hi != 3 {
		t.Fatalf("LIP default range [%d,%d]", lo, hi)
	}
	if lo, hi := (BDF{}).OrderRange(); lo != 1 || hi != 3 {
		t.Fatalf("BDF default range [%d,%d]", lo, hi)
	}
}

func TestDoubleCheckDefaults(t *testing.T) {
	d := NewLBDC()
	c := &control.CheckContext{ // minimal context with 1-entry history
		Hist: primedHistory(1), Ctrl: ctrl(), XProp: la.Vec{1}, Weights: la.Vec{1},
	}
	d.Validate(c)
	if d.Order() != 1 {
		t.Fatalf("LBDC initial order = %d, want 1", d.Order())
	}
	if NewIBDC().Order() != 1 {
		t.Fatal("IBDC initial order should be 1")
	}
	for i := 2; i < 10; i++ {
		d.Validate(c)
	}
	if w := d.Window(); w != 9 {
		t.Fatalf("window after 9 checks = %d, want 9", w)
	}
	d.Validate(c) // the c_max = 10th check reselects the order
	if w := d.Window(); w != 0 {
		t.Fatalf("window after c_max checks = %d, want 0", w)
	}
}

func primedHistory(n int) *control.History {
	h := control.NewHistory(8, 1)
	for i := 0; i < n; i++ {
		h.Push(float64(i)*0.1, la.Vec{1 - 0.1*float64(i)})
	}
	return h
}

func ctrl() *control.Controller {
	c := control.DefaultController(1e-6, 1e-6)
	return &c
}

func TestDoubleCheckCleanRunNoFalseAlarmsAfterAdaptation(t *testing.T) {
	// On a clean (no injection) smooth run, the detector must not inflate
	// cost unboundedly: the FP self-detection recovers every false alarm,
	// so the integration completes and matches the unguarded result.
	for _, d := range []*DoubleCheck{NewLBDC(), NewIBDC()} {
		in := runGuarded(t, ode.HeunEuler(), d, nil, 3)
		if e := math.Abs(in.X()[0] - math.Cos(3)); e > 1e-3 {
			t.Errorf("%T: guarded clean run error %g", d.Strat, e)
		}
		// Every validator rejection on a clean run is a false positive and
		// must have been rescued.
		if in.Stats.RejectedValidator != in.Stats.FPRescues {
			t.Errorf("%T: %d rejections but %d rescues on clean run",
				d.Strat, in.Stats.RejectedValidator, in.Stats.FPRescues)
		}
	}
}

func TestDoubleCheckDetectsUndetectedSignificantSDC(t *testing.T) {
	// Construct the paper's §V-D scenario: corrupt the step so that the
	// classic estimate LTE_1 = h/2(K2-K1) is exactly unchanged while x_n
	// shifts by h*eps. For Heun-Euler on the linear system x' = -x,
	// shifting K1 by eps cascades into K2 = f(x + h*K1) as -h*eps; adding
	// (h*eps + eps) to K2 at the hook restores K2 = K2_clean + eps, so both
	// stages carry the same shift and LTE_1 is untouched. The double-check
	// must catch what the controller cannot.
	for _, mk := range []func() *DoubleCheck{NewLBDC, NewIBDC} {
		d := mk()
		armed := false
		const eps = 1e-2
		var t0 float64
		hook := func(stage int, tt float64, k la.Vec) int {
			if !armed {
				return 0
			}
			switch stage {
			case 0:
				t0 = tt
				k[0] += eps
				return 1
			case 1:
				h := tt - t0
				k[0] += h*eps + eps
				armed = false
				return 1
			}
			return 0
		}
		// NoReuseFirstStage makes every trial evaluate K1 fresh so the hook
		// can apply the coordinated shift to both stages.
		in := &ode.Integrator{Tab: ode.HeunEuler(), Ctrl: control.DefaultController(1e-8, 1e-8), Validator: d, Hook: hook, NoReuseFirstStage: true}
		in.Init(decay, 0, 2, la.Vec{1}, 0.001)
		// Warm up 20 clean steps so the history is primed.
		for i := 0; i < 20; i++ {
			if err := in.Step(); err != nil {
				t.Fatal(err)
			}
		}
		armed = true
		rejBefore := in.Stats.RejectedValidator
		classicBefore := in.Stats.RejectedClassic
		if err := in.Step(); err != nil {
			t.Fatal(err)
		}
		if in.Stats.RejectedClassic != classicBefore {
			t.Errorf("%T: classic controller rejected (LTE_1 should be blind to this SDC)", d.Strat)
		}
		if in.Stats.RejectedValidator == rejBefore {
			t.Errorf("%T: identical-shift SDC not caught by double-check", d.Strat)
		}
	}
}

// (Algorithm 1's order-adaptation state machine is white-box tested in
// internal/control/policy_test.go, where the (q, c) state now lives.)

func TestSetOrderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewLBDC().SetOrder(5)
}

// nanStrategy forces the second estimate to NaN regardless of the history.
type nanStrategy struct{ LIP }

func (nanStrategy) Estimate(dst la.Vec, c *control.CheckContext, q int) {
	dst.Fill(math.NaN())
}

func TestDoubleCheckRejectsNaNSecondEstimate(t *testing.T) {
	// Regression: the detector test used to read `sErr2 > 1`, so a NaN
	// second estimate (every NaN comparison is false) fell through to
	// acceptance — the exact silent fall-through the shared
	// control.DetectorReject rule exists to forbid.
	d := NewDoubleCheck(&nanStrategy{})
	v := d.Validate(&control.CheckContext{
		Hist: primedHistory(4), Ctrl: ctrl(), XProp: la.Vec{1}, Weights: la.Vec{1},
	})
	if v != control.VerdictReject {
		t.Fatalf("NaN second estimate returned verdict %v, want VerdictReject", v)
	}
	if d.Stats.Rejections != 1 {
		t.Fatalf("Rejections = %d, want 1", d.Stats.Rejections)
	}
}

func TestExtraVectorsAccounting(t *testing.T) {
	// The registry's MemVectors is Table IV's accounting: order-q LIP keeps
	// q solutions beyond x_{n-1}, order-q BDF q-1, each plus the scratch.
	for _, c := range []struct {
		name     string
		orderSum int // over one check, so the mean order
		want     float64
	}{
		{"lbdc", 2, 3},
		{"ibdc", 3, 3},
		{"ibdc", 1, 1},
	} {
		det, err := control.New(c.name, control.Spec{})
		if err != nil {
			t.Fatal(err)
		}
		det.Validator.(*DoubleCheck).Stats = Stats{Checks: 1, OrderSum: c.orderSum}
		if got := det.MemVectors(); got != c.want {
			t.Fatalf("%s at order %d: extra vectors = %g, want %g", c.name, c.orderSum, got, c.want)
		}
	}
}

func TestMeanOrder(t *testing.T) {
	s := Stats{Checks: 10, Skipped: 2, OrderSum: 16}
	if got := s.MeanOrder(); got != 2 {
		t.Fatalf("MeanOrder = %g", got)
	}
	empty := Stats{}
	if empty.MeanOrder() != 0 {
		t.Fatal("empty MeanOrder should be 0")
	}
}

func TestReplicationCatchesInjections(t *testing.T) {
	plan := inject.NewPlan(xrand.New(99), inject.Scaled{})
	plan.Prob = 0.05
	rep := NewReplication(ode.HeunEuler(), oscillator)
	in := &ode.Integrator{Tab: ode.HeunEuler(), Ctrl: control.DefaultController(1e-6, 1e-6), Validator: rep, Hook: plan.Hook}
	in.Init(oscillator, 0, 5, la.Vec{1, 0}, 0.001)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if plan.Count == 0 {
		t.Fatal("no injections happened; test is vacuous")
	}
	// Replication is exact: final solution matches the clean trajectory.
	if e := math.Hypot(in.X()[0]-math.Cos(5), in.X()[1]+math.Sin(5)); e > 1e-3 {
		t.Fatalf("replication failed to protect: error %g", e)
	}
	if rep.Stats.Rejections == 0 {
		t.Fatal("replication never rejected despite injections")
	}
}

func TestReplicationNoFalsePositivesClean(t *testing.T) {
	rep := NewReplication(ode.BogackiShampine(), oscillator)
	in := runGuarded(t, ode.BogackiShampine(), rep, nil, 3)
	if in.Stats.RejectedValidator != 0 {
		t.Fatalf("replication produced %d false positives on a clean run", in.Stats.RejectedValidator)
	}
	if rep.Stats.Checks == 0 {
		t.Fatal("replication never checked")
	}
}

func TestReplicationExtraVectors(t *testing.T) {
	d, err := control.New("replication", control.Spec{Tab: ode.HeunEuler(), Sys: decay})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.MemVectors(); got != 4 {
		t.Fatalf("replication extra = %g, want N_k+2 = 4", got)
	}
}

// TestRedundancyNilTableau pins the constructors' deferred stepper: built
// with a nil tableau, each redundancy detector takes the pair from its
// first check and guards an injected run exactly as one built with the
// pair does.
func TestRedundancyNilTableau(t *testing.T) {
	run := func(v control.Validator) (ode.Stats, la.Vec) {
		plan := inject.NewPlan(xrand.New(5), inject.Scaled{})
		plan.Prob = 0.05
		in := &ode.Integrator{Tab: ode.HeunEuler(), Ctrl: control.DefaultController(1e-6, 1e-6), Validator: v, Hook: plan.Hook}
		in.Init(oscillator, 0, 5, la.Vec{1, 0}, 0.001)
		if _, err := in.Run(); err != nil {
			t.Fatal(err)
		}
		return in.Stats, in.X()
	}
	for _, tc := range []struct {
		name string
		mk   func(*control.Tableau) control.Validator
	}{
		{"replication", func(tab *control.Tableau) control.Validator { return NewReplication(tab, oscillator) }},
		{"tmr", func(tab *control.Tableau) control.Validator { return NewTMR(tab, oscillator) }},
		{"richardson", func(tab *control.Tableau) control.Validator { return NewRichardson(tab, oscillator) }},
	} {
		lazy, lazyX := run(tc.mk(nil))
		eager, eagerX := run(tc.mk(ode.HeunEuler()))
		if lazy != eager || lazy.Injections == 0 {
			t.Errorf("%s: stats with a nil tableau %+v, with the pair %+v", tc.name, lazy, eager)
		}
		for i := range eagerX {
			if math.Float64bits(lazyX[i]) != math.Float64bits(eagerX[i]) {
				t.Errorf("%s: x[%d] = %v with a nil tableau, %v with the pair", tc.name, i, lazyX[i], eagerX[i])
			}
		}
	}
}

func TestTMRCorrectsInPlace(t *testing.T) {
	plan := inject.NewPlan(xrand.New(5), inject.Scaled{})
	plan.Prob = 0.05
	tmr := NewTMR(ode.HeunEuler(), oscillator)
	in := &ode.Integrator{Tab: ode.HeunEuler(), Ctrl: control.DefaultController(1e-6, 1e-6), Validator: tmr, Hook: plan.Hook}
	in.Init(oscillator, 0, 5, la.Vec{1, 0}, 0.001)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	if plan.Count == 0 || tmr.Corrections == 0 {
		t.Fatalf("vacuous: injections=%d corrections=%d", plan.Count, tmr.Corrections)
	}
	// TMR corrects without recomputation: no validator rejections at all.
	if in.Stats.RejectedValidator != 0 {
		t.Fatalf("TMR rejected %d steps instead of correcting", in.Stats.RejectedValidator)
	}
	if e := math.Hypot(in.X()[0]-math.Cos(5), in.X()[1]+math.Sin(5)); e > 1e-3 {
		t.Fatalf("TMR failed to protect: error %g", e)
	}
}

func TestRichardsonAcceptsCleanRun(t *testing.T) {
	rich := NewRichardson(ode.HeunEuler(), oscillator)
	in := runGuarded(t, ode.HeunEuler(), rich, nil, 2)
	if in.Stats.RejectedValidator > in.Stats.Steps/10 {
		t.Fatalf("Richardson too trigger-happy: %d rejections in %d steps",
			in.Stats.RejectedValidator, in.Stats.Steps)
	}
}

func TestRichardsonCatchesLargeSDC(t *testing.T) {
	rich := NewRichardson(ode.HeunEuler(), decay)
	armed := false
	hook := func(stage int, tt float64, k la.Vec) int {
		if armed {
			k[0] += 0.05
			if stage == 1 {
				armed = false
			}
			return 1
		}
		return 0
	}
	in := &ode.Integrator{Tab: ode.HeunEuler(), Ctrl: control.DefaultController(1e-8, 1e-8), Validator: rich, Hook: hook}
	in.Init(decay, 0, 1, la.Vec{1}, 0.001)
	for i := 0; i < 10; i++ {
		if err := in.Step(); err != nil {
			t.Fatal(err)
		}
	}
	armed = true
	before := rich.Stats.Rejections
	if err := in.Step(); err != nil {
		t.Fatal(err)
	}
	if rich.Stats.Rejections == before {
		t.Fatal("Richardson missed an identical-shift SDC")
	}
}

// TestRichardsonRejectsNaNSecondEstimate: a right-hand side that is NaN
// only at the half-step abscissa t = 0.025 leaves the full Heun–Euler step
// from t = 0 with h = 0.05 clean but poisons the two-half-step
// recomputation, so SErr_2 is NaN. The check must reject that step.
func TestRichardsonRejectsNaNSecondEstimate(t *testing.T) {
	sys := control.Func{N: 2, F: func(tt float64, x, dst la.Vec) {
		oscillator.F(tt, x, dst)
		if la.ExactEq(tt, 0.025) {
			dst[0] = math.NaN()
		}
	}}
	tab := ode.HeunEuler()
	x0 := la.Vec{1, 0}
	res := ode.NewStepper(tab, sys).Trial(0, 0.05, x0, nil, nil)
	if res.XProp.HasNaNOrInf() {
		t.Fatalf("full step poisoned: %v", res.XProp)
	}
	ctrl := control.DefaultController(1e-6, 1e-6)
	w := la.NewVec(2)
	ctrl.Weights(w, res.XProp)
	c := &control.CheckContext{T: 0, H: 0.05, XStart: x0, XStored: x0, XProp: res.XProp, ErrVec: res.ErrVec,
		Weights: w, Ctrl: &ctrl, Tab: tab}
	rich := NewRichardson(tab, sys)
	v := rich.Validate(c)
	if sErr2, _, _, _ := c.CheckReport(); !math.IsNaN(sErr2) {
		t.Fatalf("SErr_2 = %g, want NaN from the poisoned half step", sErr2)
	}
	if v != control.VerdictReject || rich.Stats.Rejections != 1 {
		t.Fatalf("verdict %v with %d rejections, want a rejection of SErr_2 = NaN", v, rich.Stats.Rejections)
	}
}

// runNaNStage integrates the oscillator with the constant step h = 0.01
// under the detector v for 60 clean steps, then takes one step whose first
// trial has NaN written into stage 1. No classic test runs on the
// fixed-step path, so the detector alone stands between the NaN and the
// stored solution.
func runNaNStage(t *testing.T, v control.Validator) {
	t.Helper()
	armed := false
	hook := func(stage int, _ float64, k la.Vec) int {
		if armed && stage == 1 {
			armed = false
			k[0] = math.NaN()
			return 1
		}
		return 0
	}
	in := &ode.Integrator{Tab: ode.HeunEuler(), Validator: v, Hook: hook, FixedStep: true}
	in.Init(oscillator, 0, 20, la.Vec{1, 0}, 0.01)
	runSteps(t, in, 60)
	if in.Stats.RejectedValidator != 0 {
		t.Fatalf("clean warm-up rejected %d steps", in.Stats.RejectedValidator)
	}
	armed = true
	if err := in.Step(); err != nil {
		t.Fatal(err)
	}
	if in.X().HasNaNOrInf() {
		t.Fatalf("NaN stage accepted: x = %v", in.X())
	}
	if in.Stats.RejectedValidator != 1 || in.Stats.RejectedClassic != 0 {
		t.Fatalf("%d validator and %d classic rejections, want 1 and 0 (the NaN trial, then a clean recomputation)",
			in.Stats.RejectedValidator, in.Stats.RejectedClassic)
	}
}

// runSteps advances in by n accepted steps.
func runSteps(t *testing.T, in *ode.Integrator, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := in.Step(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestAIDRejectsNaNProposal(t *testing.T) {
	aid := NewAID()
	runNaNStage(t, aid)
	if aid.Stats.Rejections != 1 {
		t.Fatalf("AID counted %d rejections, want 1", aid.Stats.Rejections)
	}
}

func TestHotRodeRejectsNaNProposal(t *testing.T) {
	hr := NewHotRode()
	runNaNStage(t, hr)
	if hr.Stats.Rejections != 1 {
		t.Fatalf("Hot Rode counted %d rejections, want 1", hr.Stats.Rejections)
	}
}

func TestAIDFixedStepDetection(t *testing.T) {
	aid := NewAID()
	plan := inject.NewPlan(xrand.New(11), inject.Scaled{})
	plan.Prob = 0 // warm up clean first
	in := &ode.Integrator{Tab: ode.HeunEuler(), Validator: aid, Hook: plan.Hook, FixedStep: true}
	in.Init(oscillator, 0, 20, la.Vec{1, 0}, 0.01)
	runSteps(t, in, 50)
	cleanRej := aid.Stats.Rejections
	plan.Prob = 0.2
	runSteps(t, in, 200)
	if plan.Count == 0 {
		t.Fatal("vacuous")
	}
	if aid.Stats.Rejections == cleanRej {
		t.Fatal("AID never detected anything under heavy injection")
	}
}

func TestHotRodeFixedStepDetection(t *testing.T) {
	hr := NewHotRode()
	plan := inject.NewPlan(xrand.New(13), inject.Scaled{})
	plan.Prob = 0
	in := &ode.Integrator{Tab: ode.HeunEuler(), Validator: hr, Hook: plan.Hook, FixedStep: true}
	in.Init(oscillator, 0, 20, la.Vec{1, 0}, 0.01)
	runSteps(t, in, 50)
	plan.Prob = 0.2
	runSteps(t, in, 200)
	if plan.Count == 0 {
		t.Fatal("vacuous")
	}
	if hr.Stats.Rejections == 0 {
		t.Fatal("Hot Rode never detected anything under heavy injection")
	}
}

func TestIBDCUsesFPropWithoutExtraEvalsOnFSAL(t *testing.T) {
	// On a FSAL pair, IBDC must not add any function evaluations on
	// accepted steps.
	cs := &control.CountingSystem{Sys: oscillator}
	d := NewIBDC()
	in := &ode.Integrator{Tab: ode.BogackiShampine(), Ctrl: control.DefaultController(1e-6, 1e-6), Validator: d}
	in.Init(cs, 0, 1, la.Vec{1, 0}, 0.01)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	evalsGuarded := cs.Evals

	cs2 := &control.CountingSystem{Sys: oscillator}
	in2 := &ode.Integrator{Tab: ode.BogackiShampine(), Ctrl: control.DefaultController(1e-6, 1e-6)}
	in2.Init(cs2, 0, 1, la.Vec{1, 0}, 0.01)
	if _, err := in2.Run(); err != nil {
		t.Fatal(err)
	}
	// Guarded run may recompute a few FP steps but must stay close.
	ratio := float64(evalsGuarded) / float64(cs2.Evals)
	if ratio > 1.25 {
		t.Fatalf("IBDC on FSAL cost ratio %.2f, want ~1", ratio)
	}
}

func TestRunToSamplesExactly(t *testing.T) {
	in := &ode.Integrator{Tab: ode.HeunEuler(), Ctrl: control.DefaultController(1e-6, 1e-6), Validator: NewIBDC()}
	in.Init(decay, 0, 2, la.Vec{1}, 0.01)
	for _, ts := range []float64{0.5, 1.0, 1.7} {
		if err := in.RunTo(ts); err != nil {
			t.Fatal(err)
		}
		if math.Abs(in.T()-ts) > 1e-12 {
			t.Fatalf("RunTo landed at %g, want %g", in.T(), ts)
		}
		if e := math.Abs(in.X()[0] - math.Exp(-ts)); e > 1e-4 {
			t.Fatalf("x(%g) error %g", ts, e)
		}
	}
	if err := in.RunTo(5); err == nil {
		t.Fatal("RunTo beyond tEnd should fail")
	}
}

func TestTMRAccounting(t *testing.T) {
	tmr, err := control.New("tmr", control.Spec{Tab: ode.HeunEuler(), Sys: decay})
	if err != nil {
		t.Fatal(err)
	}
	if got := tmr.MemVectors(); got != 8 { // 2*(N_k+2)
		t.Fatalf("TMR extra vectors = %g, want 8", got)
	}
}
