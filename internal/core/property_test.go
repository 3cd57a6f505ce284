package core

import (
	"math"
	"testing"

	"repro/internal/control"
	"repro/internal/la"
	"repro/internal/ode"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// cMax is Algorithm 1's order reselection period, which bounds the
// reported window counter c.
const cMax = 10

// propertyProblems are the clean workloads the randomized invariant sweep
// integrates: small, smooth, and cheap enough to run dozens of
// configurations in a unit test.
var propertyProblems = []struct {
	name string
	sys  control.System
	x0   la.Vec
	tEnd float64
}{
	{"oscillator", oscillator, la.Vec{1, 0}, 3},
	{"decay", decay, la.Vec{1}, 3},
	{"vanderpol", control.Func{N: 2, F: func(t float64, x, dst la.Vec) {
		dst[0] = x[1]
		dst[1] = 2*(1-x[0]*x[0])*x[1] - x[0]
	}}, la.Vec{2, 0}, 3},
}

// TestPropertyCleanRunsSelfRecoverEveryFalsePositive is the randomized form
// of the paper's false-positive-recognition invariant (§III-E): on a clean
// run — where every validator rejection is by definition a false positive —
// the recomputation at the same step size reproduces the scaled error bit
// for bit, so the validator must recognize and rescue every one of its own
// rejections, for every tableau, tolerance, strategy, and seed.
func TestPropertyCleanRunsSelfRecoverEveryFalsePositive(t *testing.T) {
	rng := xrand.New(20170905)
	tabs := ode.Tableaus()
	for trial := 0; trial < 24; trial++ {
		tab := tabs[rng.IntN(len(tabs))]
		prob := propertyProblems[rng.IntN(len(propertyProblems))]
		// Tolerances log-uniform in [1e-8, 1e-3].
		tol := math.Pow(10, -8+5*rng.Float64())
		var det *DoubleCheck
		var kind string
		if rng.Bernoulli(0.5) {
			det, kind = NewLBDC(), "lbdc"
		} else {
			det, kind = NewIBDC(), "ibdc"
		}
		if rng.Bernoulli(0.25) {
			det.NoAdapt = true
		}

		rec := telemetry.NewRecorder(1 << 18)
		in := &ode.Integrator{
			Tab:       tab,
			Ctrl:      control.DefaultController(tol, tol),
			Validator: det,
			Tracer:    rec,
		}
		in.Init(prob.sys, 0, prob.tEnd, prob.x0.Clone(), 0.001)
		if _, err := in.Run(); err != nil {
			t.Fatalf("trial %d (%s/%s/tol=%.2g/%s): clean run failed: %v",
				trial, prob.name, tab.Name, tol, kind, err)
		}

		if in.Stats.FPRescues != in.Stats.RejectedValidator {
			t.Errorf("trial %d (%s/%s/tol=%.2g/%s): %d validator rejections but %d FP rescues — a clean trial was flagged without self-recognition",
				trial, prob.name, tab.Name, tol, kind,
				in.Stats.RejectedValidator, in.Stats.FPRescues)
		}
		checkTraceInvariants(t, rec, in, trial, kind, det)
	}
}

// checkTraceInvariants asserts the step-trace properties every clean run
// must satisfy: the event count matches the integrator's trial count, each
// validator rejection is immediately retried at the identical (t, h) and
// rescued, and the order-adaptation state stays inside its configured
// bounds on every event that carries it.
func checkTraceInvariants(t *testing.T, rec *telemetry.Recorder, in *ode.Integrator, trial int, kind string, det *DoubleCheck) {
	t.Helper()
	if rec.Dropped() != 0 {
		t.Fatalf("trial %d: trace ring dropped %d events; raise the test capacity", trial, rec.Dropped())
	}
	events := rec.Events()
	if len(events) != in.Stats.TrialSteps {
		t.Errorf("trial %d (%s): %d trace events, integrator counted %d trials",
			trial, kind, len(events), in.Stats.TrialSteps)
	}

	qMin, qMax := det.Strat.OrderRange()
	for i, e := range events {
		if e.Corrupted() || e.Significant != telemetry.SigUnknown {
			t.Fatalf("trial %d event %d: clean run carries injection ground truth: %+v", trial, i, e)
		}
		if e.Q >= 0 {
			if e.Q < qMin || e.Q > qMax {
				t.Errorf("trial %d event %d (%s): order q=%d outside [%d, %d]", trial, i, kind, e.Q, qMin, qMax)
			}
			if e.C < 0 || e.C > cMax {
				t.Errorf("trial %d event %d (%s): window counter c=%d outside [0, %d]", trial, i, kind, e.C, cMax)
			}
		}
		if e.Verdict == telemetry.VerdictValidatorReject {
			if e.Accepted {
				t.Fatalf("trial %d event %d: validator-rejected trial marked accepted", trial, i)
			}
			if i+1 >= len(events) {
				t.Fatalf("trial %d: trace ends on an unresolved validator rejection", trial)
			}
			next := events[i+1]
			if next.T != e.T || next.H != e.H {
				t.Errorf("trial %d event %d: validator rejection retried at (t=%g, h=%g), want identical (t=%g, h=%g)",
					trial, i, next.T, next.H, e.T, e.H)
			}
			if next.Verdict != telemetry.VerdictFPRescue {
				t.Errorf("trial %d event %d: clean validator rejection resolved as %v, want fp-rescue",
					trial, i, next.Verdict)
			}
			if math.Float64bits(next.SErr1) != math.Float64bits(e.SErr1) {
				t.Errorf("trial %d event %d: recomputed SErr1 %x differs from original %x — FP self-detection needs bitwise reproducibility",
					trial, i, math.Float64bits(next.SErr1), math.Float64bits(e.SErr1))
			}
		}
	}
}

// TestPropertyOrderAdaptationBounds drives the order-adaptation state
// machine itself with randomized check sequences (decoupled from any
// integration) and asserts q and c never leave their configured ranges.
func TestPropertyOrderAdaptationBounds(t *testing.T) {
	rng := xrand.New(42)
	for trial := 0; trial < 40; trial++ {
		var det *DoubleCheck
		if rng.Bernoulli(0.5) {
			det = NewLBDC()
		} else {
			det = NewIBDC()
		}
		qMin, qMax := det.Strat.OrderRange()

		hist := control.NewHistory(8, 1)
		c := control.DefaultController(1e-6, 1e-6)
		eng := control.Engine{Validator: det}
		eng.Reset(1)
		w := la.NewVec(1)
		tPrev, xPrev := 0.0, 1.0
		for step := 0; step < 200; step++ {
			h := math.Pow(10, -4+3*rng.Float64())
			// A mostly smooth sequence with occasional jumps, so the
			// second estimate sometimes trips the check and exercises the
			// gamma / window transitions of Algorithm 1.
			x := xPrev * (1 - h)
			if rng.Bernoulli(0.1) {
				x *= 1 + rng.Norm()
			}
			hist.Push(tPrev, la.Vec{xPrev})
			// An embedded estimate of half the error level scores SErr_1 =
			// 0.5, so every trial passes the classic test and reaches the
			// detector; BeginStep makes none of them a recomputation.
			errVec := la.Vec{0.5 * (1e-6 + 1e-6*math.Abs(x))}
			eng.BeginStep()
			chk := eng.Decide(&c, step, tPrev, h, la.Vec{xPrev}, la.Vec{xPrev}, la.Vec{x}, errVec,
				w, hist, ode.HeunEuler(), decay, nil, nil, false)
			if chk.ClassicReject {
				t.Fatalf("trial %d step %d: classic test rejected SErr_1 = %g", trial, step, chk.SErr1)
			}
			if q := det.Order(); q < qMin || q > qMax {
				t.Fatalf("trial %d step %d: order %d left [%d, %d]", trial, step, q, qMin, qMax)
			}
			if q, cw := chk.DetOrder, chk.DetWindow; q != -1 {
				if q < qMin || q > qMax {
					t.Fatalf("trial %d step %d: reported order %d outside [%d, %d]", trial, step, q, qMin, qMax)
				}
				if cw < 0 || cw > cMax {
					t.Fatalf("trial %d step %d: reported window %d outside [0, %d]", trial, step, cw, cMax)
				}
			}
			tPrev, xPrev = tPrev+h, x
		}
	}
}
