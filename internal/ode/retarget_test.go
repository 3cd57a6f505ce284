package ode

import (
	"testing"

	"repro/internal/control"
	"repro/internal/la"
)

// Table-driven coverage of the recycled-integrator path across problems of
// different dimension: the campaign arenas re-Init one integrator across
// replicates, so a stale stage buffer, history ring, or engine scratch
// surviving a Dim change would silently skew campaign numbers. Every
// recycled run must reproduce a fresh integrator's run bit for bit,
// including through a history-consuming validator.

// triDecay is a 3-dimensional system, giving the retarget table a third
// distinct dimension beyond the shared decay (1) and oscillator (2).
var triDecay = control.Func{N: 3, F: func(t float64, x, dst la.Vec) {
	dst[0] = -x[0]
	dst[1] = -2 * x[1]
	dst[2] = 0.5*x[0] - 3*x[2]
}}

// histValidator double-checks proposals against a Lagrange-interpolation
// extrapolation of the history ring — a deliberately history-hungry
// validator, so any stale ring contents surviving a Retarget/re-Init
// change the verdict stream and fail the bitwise comparison. A rejection
// is followed by an accept on the recomputation (the trial is
// deterministic, so re-rejecting would loop to MaxTrials).
type histValidator struct {
	est  LIPEstimator
	xhat la.Vec
}

func (v *histValidator) Validate(c *control.CheckContext) control.Verdict {
	q := c.Hist.Len() - 1
	if q > 2 {
		q = 2
	}
	if c.Recomputation || q < 1 {
		return control.VerdictAccept
	}
	if len(v.xhat) != c.Hist.Dim() {
		v.xhat = la.NewVec(c.Hist.Dim())
	}
	v.est.Estimate(v.xhat, c.Hist, q, c.T+c.H)
	if c.Ctrl.ScaledDiff(c.XProp, v.xhat, c.Weights) > 100 {
		return control.VerdictReject
	}
	return control.VerdictAccept
}

// retargetCase is one row of the recycle table.
type retargetCase struct {
	name string
	sys  control.System
	x0   la.Vec
	tEnd float64
}

func retargetTable() []retargetCase {
	return []retargetCase{
		{"osc-d2", oscillator, la.Vec{1, 0}, 2},
		{"decay-d1", decay, la.Vec{1}, 3},
		{"tri-d3", triDecay, la.Vec{1, -1, 0.5}, 1.5},
		{"decay-d1-x2", decay, la.Vec{2}, 2},
		{"osc-d2-x01", oscillator, la.Vec{0, 1}, 1},
		{"tri-d3-x121", triDecay, la.Vec{-1, 2, 1}, 2},
		{"osc-d2-again", oscillator, la.Vec{1, 0}, 2},
	}
}

// runRetargetCase Inits in for the row (mirroring the harness discipline of
// resetting the resolved zero-default knobs before every re-Init) and runs
// it to completion.
func runRetargetCase(t *testing.T, in *Integrator, rc retargetCase) (la.Vec, Stats) {
	t.Helper()
	in.Validator = &histValidator{}
	in.MinStep = 0 // resolved per span; reset like the campaign arena does
	in.Init(rc.sys, 0, rc.tEnd, rc.x0, 0.01)
	if _, err := in.Run(); err != nil {
		t.Fatalf("%s: %v", rc.name, err)
	}
	return in.X().Clone(), in.Stats
}

// TestIntegratorRetargetAcrossDims cycles one recycled integrator through
// the full table — every transition changes dimension — and compares each
// leg bitwise against a fresh integrator.
func TestIntegratorRetargetAcrossDims(t *testing.T) {
	tab := BogackiShampine() // FSAL, so the fNext cache crosses re-Inits too
	reused := newTestIntegrator(tab, 1e-6, 1e-6)
	for _, rc := range retargetTable() {
		gotX, gotStats := runRetargetCase(t, reused, rc)
		fresh := newTestIntegrator(tab, 1e-6, 1e-6)
		wantX, wantStats := runRetargetCase(t, fresh, rc)
		if gotStats != wantStats {
			t.Fatalf("%s: recycled stats %+v, fresh %+v", rc.name, gotStats, wantStats)
		}
		if gotStats.RejectedValidator == 0 {
			t.Fatalf("%s: validator never fired; the history coverage is vacuous", rc.name)
		}
		for i := range wantX {
			if gotX[i] != wantX[i] {
				t.Fatalf("%s component %d: recycled %g, fresh %g", rc.name, i, gotX[i], wantX[i])
			}
		}
	}
}

// TestStepperRetargetDimSequence drives one stepper through a dimension
// sequence (2 → 1 → 3 → 2), comparing every trial bitwise against a fresh
// stepper and checking that every internal buffer really was rebuilt to the
// new dimension.
func TestStepperRetargetDimSequence(t *testing.T) {
	tab := CashKarp()
	s := NewStepper(tab, oscillator)
	seq := []struct {
		sys control.System
		x   la.Vec
	}{
		{oscillator, la.Vec{1, 0}},
		{decay, la.Vec{1}},
		{triDecay, la.Vec{1, -1, 0.5}},
		{oscillator, la.Vec{0, 1}},
	}
	for step, sc := range seq {
		s.Retarget(sc.sys)
		if s.Dim() != sc.sys.Dim() {
			t.Fatalf("leg %d: Dim = %d, want %d", step, s.Dim(), sc.sys.Dim())
		}
		for i := range s.K {
			if len(s.K[i]) != sc.sys.Dim() {
				t.Fatalf("leg %d: stage %d buffer has dim %d, want %d", step, i, len(s.K[i]), sc.sys.Dim())
			}
		}
		got := s.Trial(0.3, 0.05, sc.x, nil, nil)
		want := NewStepper(tab, sc.sys).Trial(0.3, 0.05, sc.x, nil, nil)
		for i := range want.XProp {
			if got.XProp[i] != want.XProp[i] || got.ErrVec[i] != want.ErrVec[i] {
				t.Fatalf("leg %d: retargeted trial differs from fresh at component %d", step, i)
			}
		}
	}
}
