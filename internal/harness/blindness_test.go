package harness

import (
	"math"
	"testing"

	"repro/internal/control"
	"repro/internal/inject"
	"repro/internal/la"
	"repro/internal/ode"
	"repro/internal/problems"
	"repro/internal/xrand"
)

// TestHeunEulerEstimateDominatesImpact codifies the structural analysis in
// EXPERIMENTS.md: for the two-stage Heun-Euler pair under single-stage
// corruption on dissipative dynamics, the corrupted error estimate moves at
// least as much as the solution (|1-z| >= |1+z| for Re z <= 0), so the
// classic controller is essentially never blind. Burgers' compression
// regions are locally anti-dissipative, which opens a narrow window
// slightly below 1 (the source of the 0.2-0.8%% Heun-Euler SFNR we
// measure); the minimum ratio must still stay well above the deep
// blindness (< 0.5) that higher-order pairs exhibit.
func TestHeunEulerEstimateDominatesImpact(t *testing.T) {
	p := problems.Burgers1D(64, "weno5")
	p.TEnd = 0.25
	tab := ode.HeunEuler()
	ctrl := control.DefaultController(p.TolA, p.TolR)
	minRatio := math.Inf(1)
	impactful := 0
	root := xrand.New(99)
	for rep := 0; rep < 60; rep++ {
		plan := inject.NewPlan(root.Split(uint64(rep)), inject.Scaled{})
		in := &ode.Integrator{Tab: tab, Ctrl: ctrl, Hook: plan.Hook, MaxStep: p.MaxStep, MaxSteps: 1 << 18}
		shadow := ode.NewStepper(tab, p.Sys)
		cw := la.NewVec(p.Sys.Dim())
		xt := la.NewVec(p.Sys.Dim())
		in.OnTrial = func(tr *ode.Trial) {
			if tr.Injections == 0 || tr.XProp.HasNaNOrInf() || math.IsNaN(tr.SErr1) {
				return
			}
			restore := plan.Pause()
			clean := shadow.Trial(tr.T, tr.H, tr.XStart, nil, nil)
			restore()
			xt.CopyFrom(clean.XProp)
			xt.Sub(clean.ErrVec)
			ctrl.Weights(cw, clean.XProp)
			sTrue := ctrl.ScaledDiff(tr.XProp, xt, cw)
			if sTrue < 0.5 {
				return // not impactful enough to matter
			}
			impactful++
			if r := tr.SErr1 / sTrue; r < minRatio {
				minRatio = r
			}
		}
		in.Init(p.Sys, p.T0, p.TEnd, p.X0, p.H0)
		if _, err := in.Run(); err != nil {
			t.Fatal(err)
		}
	}
	if impactful < 50 {
		t.Fatalf("only %d impactful corruptions; test is weak", impactful)
	}
	if minRatio < 0.7 {
		t.Fatalf("min SErr1/SErrTrue = %.3f — Heun-Euler blindness window far wider than the analysis predicts", minRatio)
	}
}
