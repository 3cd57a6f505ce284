// Package implicit extends the study to implicit solvers — the future work
// the paper's conclusion announces ("We plan also to explore the use of the
// double-checking mechanism for implicit solvers"). It implements an
// adaptive, L-stable SDIRK2(1) integrator (Alexander's two-stage singly
// diagonally implicit Runge-Kutta method, gamma = 1 - 1/sqrt(2)) whose
// stages are solved by Jacobian-free Newton-Krylov iteration, and exposes
// the same Validator seam as the explicit integrator, so the detectors in
// internal/core guard it unchanged.
//
// The method is stiffly accurate (the second stage state is the new
// solution), which gives the integration-based double-checking its f(x_n)
// for free — the implicit analog of the FSAL property §V-B exploits.
package implicit

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/control"
	"repro/internal/krylov"
	"repro/internal/la"
	"repro/internal/ode"
)

// Gamma is the SDIRK2 diagonal coefficient 1 - 1/sqrt(2); with it the
// two-stage method is second order and L-stable.
var Gamma = 1 - 1/math.Sqrt2

// Stats counts the integration work.
type Stats struct {
	Steps             int
	TrialSteps        int
	RejectedClassic   int
	RejectedValidator int
	RejectedNewton    int // trials abandoned because a stage solve failed
	FPRescues         int
	Evals             int64
	NewtonIters       int64
	KrylovIters       int64
}

// The solver bounds shared by Integrator and BDF.
const (
	maxTrials     = 100 // trials per step
	historyDepth  = 8   // solution ring depth
	newtonMaxIter = 20  // Newton iterations per stage solve
)

// Integrator advances stiff initial-value problems with adaptive SDIRK2(1)
// steps under the classic controller, optionally guarded by an
// ode.Validator (the double-checking detectors).
type Integrator struct {
	Ctrl      ode.Controller
	Validator ode.Validator

	MaxSteps int     // accepted-step bound (0 = 1<<20)
	MinStep  float64 // failure threshold (0 = 1e-14 * span)
	MaxStep  float64 // step cap (0 = none)

	NewtonTol  float64 // nonlinear residual reduction (0 = 1e-3, scaled by tolerances)
	KrylovOpts krylov.Options
	// NoDirect forces matrix-free Newton-Krylov; by default the dense-
	// Jacobian LU Newton path runs when the dimension is at most
	// DirectMaxDim.
	NoDirect bool

	sys  ode.System
	t    float64
	tEnd float64
	x    la.Vec
	h    float64
	hist *ode.History

	dsolver   directSolver
	k1, k2    la.Vec
	stage     la.Vec
	resid     la.Vec
	delta     la.Vec
	ftmp      la.Vec
	xProp     la.Vec
	errVec    la.Vec
	weights   la.Vec
	jvBase    la.Vec
	jvScratch la.Vec
	engine    control.Engine // shared protected-step pipeline

	Stats Stats
}

// ErrStepSizeUnderflow mirrors the explicit integrator's failure mode.
var ErrStepSizeUnderflow = errors.New("implicit: step size underflow")

// ErrTooManyTrials mirrors the explicit integrator's trial bound.
var ErrTooManyTrials = errors.New("implicit: too many trials for one step")

// Init prepares the integrator to advance sys from x0 at t0 to tEnd with
// the initial step h0. x0 is copied.
func (in *Integrator) Init(sys ode.System, t0, tEnd float64, x0 la.Vec, h0 float64) {
	if in.Ctrl == (ode.Controller{}) {
		in.Ctrl = ode.DefaultController(1e-6, 1e-6)
	}
	if in.MaxSteps == 0 {
		in.MaxSteps = 1 << 20
	}
	if in.MinStep == 0 {
		in.MinStep = 1e-14 * math.Max(1, math.Abs(tEnd-t0))
	}
	if in.NewtonTol == 0 {
		in.NewtonTol = 1e-3
	}
	in.sys = sys
	in.t, in.tEnd = t0, tEnd
	in.x = x0.Clone()
	in.h = h0
	m := sys.Dim()
	in.hist = ode.NewHistory(historyDepth, m)
	in.hist.Push(t0, 0, in.x)
	for _, v := range []*la.Vec{&in.k1, &in.k2, &in.stage, &in.resid, &in.delta, &in.ftmp, &in.xProp, &in.errVec, &in.weights, &in.jvBase, &in.jvScratch} {
		*v = la.NewVec(m)
	}
	in.engine.Reset(m)
	in.Stats = Stats{}
}

// T returns the current time.
func (in *Integrator) T() float64 { return in.t }

// X returns a view of the current solution.
func (in *Integrator) X() la.Vec { return in.x }

// History returns the accepted-solution ring.
func (in *Integrator) History() *ode.History { return in.hist }

// Done reports whether tEnd was reached.
func (in *Integrator) Done() bool { return in.t >= in.tEnd-1e-14*math.Abs(in.tEnd) }

// eval wraps the RHS with counting.
func (in *Integrator) eval(t float64, x, dst la.Vec) {
	in.sys.Eval(t, x, dst)
	in.Stats.Evals++
}

// solveStage solves K = f(ts, base + h*Gamma*K) by Newton iteration with
// finite-difference Jacobian-vector products. K holds the initial guess and
// the result.
func (in *Integrator) solveStage(ts, h float64, base, K la.Vec) error {
	m := len(K)
	hg := h * Gamma
	// Residual scale: Newton is converged when the residual is far below
	// the integration tolerance in the scaled norm.
	for iter := 0; iter < newtonMaxIter; iter++ {
		in.Stats.NewtonIters++
		// stage = base + hg*K ; resid = K - f(ts, stage)
		in.stage.CopyFrom(base)
		in.stage.AXPY(hg, K)
		in.eval(ts, in.stage, in.ftmp)
		in.resid.CopyFrom(K)
		in.resid.Sub(in.ftmp)
		rnorm := in.resid.Norm2()
		ref := 1 + in.ftmp.Norm2()
		if math.IsNaN(rnorm) || math.IsInf(rnorm, 0) || math.IsNaN(ref) || math.IsInf(ref, 0) {
			return fmt.Errorf("implicit: Newton residual not finite")
		}
		if rnorm <= in.NewtonTol*in.Ctrl.TolA*ref/(math.Max(h, 1e-300)) || rnorm <= 1e-12*ref {
			return nil
		}
		// Solve (I - hg*J) delta = -resid.
		useDirect := !in.NoDirect && m <= DirectMaxDim
		if useDirect {
			rhsv := in.resid.Clone()
			rhsv.Scale(-1 / hg) // (I - hg J) = hg((1/hg) I - J)
			if err := in.dsolver.solve(in.eval, ts, in.stage, in.ftmp, 1/hg, rhsv, in.delta); err != nil {
				return err
			}
			// The stage-state update dx relates to dK by dx = hg*dK at
			// fixed base, so delta solves for dK directly given the scaled
			// system above... more precisely: residual r(K) has Jacobian
			// (I - hg*J); we solved hg*((1/hg)I - J) dK = -r, i.e. the
			// same system.
			K.Add(in.delta)
			continue
		}
		// Matrix-free path: J*v by finite differences around the stage.
		in.jvBase.CopyFrom(in.ftmp) // f at the current stage
		stageNorm := in.stage.Norm2()
		matvec := func(dst, v la.Vec) {
			vn := v.Norm2()
			if vn == 0 {
				dst.Zero()
				return
			}
			eps := 1e-7 * (1 + stageNorm) / vn
			in.jvScratch.CopyFrom(in.stage)
			in.jvScratch.AXPY(eps, v)
			in.eval(ts, in.jvScratch, dst)
			// dst = v - hg * (f(stage+eps v) - f(stage))/eps
			for i := 0; i < m; i++ {
				dst[i] = v[i] - hg*(dst[i]-in.jvBase[i])/eps
			}
		}
		in.delta.Zero()
		rhs := in.resid.Clone()
		rhs.Scale(-1)
		opts := in.KrylovOpts
		if opts.Tol == 0 {
			opts.Tol = 1e-4
		}
		if opts.MaxIter == 0 {
			opts.MaxIter = 10 * m
			if opts.MaxIter > 300 {
				opts.MaxIter = 300
			}
		}
		it, _, err := krylov.GMRES(matvec, rhs, in.delta, opts)
		in.Stats.KrylovIters += int64(it)
		if err != nil {
			return fmt.Errorf("implicit: stage linear solve: %w", err)
		}
		K.Add(in.delta)
	}
	return fmt.Errorf("implicit: Newton did not converge in %d iterations", newtonMaxIter)
}

// Step advances one accepted SDIRK2 step.
func (in *Integrator) Step() error {
	h := in.h
	if in.MaxStep > 0 && h > in.MaxStep {
		h = in.MaxStep
	}
	if in.t+h > in.tEnd {
		h = in.tEnd - in.t
	}
	in.engine.Validator = in.Validator
	in.engine.BeginStep()
	for attempt := 1; ; attempt++ {
		if attempt > maxTrials {
			return ErrTooManyTrials
		}
		if h < in.MinStep {
			return ErrStepSizeUnderflow
		}
		in.Stats.TrialSteps++

		// Stage 1: K1 = f(t + Gamma h, x + h Gamma K1); warm start from
		// f(t, x).
		in.eval(in.t, in.x, in.k1)
		if err := in.solveStage(in.t+Gamma*h, h, in.x, in.k1); err != nil {
			in.Stats.RejectedNewton++
			h /= 2
			in.engine.BeginStep() // an aborted trial is not a recomputation
			continue
		}
		// Stage 2: base = x + h(1-Gamma) K1; K2 = f(t+h, base + h Gamma K2).
		in.stage.CopyFrom(in.x)
		in.stage.AXPY(h*(1-Gamma), in.k1)
		base2 := in.stage.Clone()
		in.k2.CopyFrom(in.k1)
		if err := in.solveStage(in.t+h, h, base2, in.k2); err != nil {
			in.Stats.RejectedNewton++
			h /= 2
			in.engine.BeginStep()
			continue
		}

		// Proposal (stiffly accurate): x + h((1-Gamma)K1 + Gamma K2).
		in.xProp.CopyFrom(in.x)
		in.xProp.AXPY(h*(1-Gamma), in.k1)
		in.xProp.AXPY(h*Gamma, in.k2)
		// Embedded first-order comparison: backward-Euler-flavored weights
		// bhat = (1/2, 1/2): err = h((1-Gamma)-1/2)(K1 - K2).
		d := h * ((1 - Gamma) - 0.5)
		in.errVec.CopyFrom(in.k1)
		in.errVec.Sub(in.k2)
		in.errVec.Scale(d)

		// The shared protected-step pipeline; K2 = f(t+h, xProp) by stiff
		// accuracy, so the double-check's FProp is free.
		chk := in.engine.Decide(&in.Ctrl, in.Stats.Steps, in.t, h,
			in.x, in.x, in.xProp, in.errVec, in.weights,
			in.hist, nil, in.sys, nil, in.k2)
		sErr1 := chk.SErr1

		if chk.ClassicReject {
			in.Stats.RejectedClassic++
			h = in.Ctrl.RejectStepSize(h, sErr1, 2) // p^ = 1 for the 2(1) pair
			continue
		}

		switch chk.Verdict {
		case ode.VerdictReject:
			in.Stats.RejectedValidator++
			continue // same step size, clean recomputation
		case ode.VerdictFPRescue:
			in.Stats.FPRescues++
		}

		in.t += h
		in.x.CopyFrom(in.xProp)
		in.hist.Push(in.t, h, in.x)
		in.Stats.Steps++
		in.h = in.Ctrl.NewStepSize(h, sErr1, 2)
		if in.MaxStep > 0 && in.h > in.MaxStep {
			in.h = in.MaxStep
		}
		return nil
	}
}

// Run advances to tEnd, returning the accepted steps taken.
func (in *Integrator) Run() (int, error) {
	start := in.Stats.Steps
	for !in.Done() {
		if in.Stats.Steps-start >= in.MaxSteps {
			return in.Stats.Steps - start, fmt.Errorf("implicit: exceeded MaxSteps at t=%g", in.t)
		}
		if err := in.Step(); err != nil {
			return in.Stats.Steps - start, err
		}
	}
	return in.Stats.Steps - start, nil
}
