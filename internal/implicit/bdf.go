package implicit

import (
	"fmt"
	"math"

	"repro/internal/control"
	"repro/internal/krylov"
	"repro/internal/la"
	"repro/internal/ode"
)

// BDF is an adaptive variable-step BDF2 integrator with Jacobian-free
// Newton-Krylov corrector iterations — the production form of the backward
// differentiation formulas whose prediction step powers the paper's
// integration-based double-checking (§V-B). The first step bootstraps with
// backward Euler (BDF1); afterwards the variable-step BDF2 coefficients are
// generated from the same Fornberg differentiation weights the IBDC
// estimate uses, and the local error is estimated from the deviation of the
// corrected solution from the quadratic extrapolation predictor.
type BDF struct {
	Ctrl      ode.Controller
	Validator ode.Validator

	MaxSteps   int
	MinStep    float64
	MaxStep    float64
	NewtonTol  float64
	KrylovOpts krylov.Options
	// NoDirect selects the Newton linear solver as in Integrator.
	NoDirect bool

	sys  ode.System
	t    float64
	tEnd float64
	x    la.Vec
	h    float64
	hist *ode.History

	dsolver directSolver
	xProp   la.Vec
	pred    la.Vec
	rhs     la.Vec
	resid   la.Vec
	delta   la.Vec
	ftmp    la.Vec
	fbase   la.Vec
	scratch la.Vec
	errVec  la.Vec
	weights la.Vec
	neg     la.Vec

	// Per-step differentiation/prediction workspaces (orders are <= 2, so
	// the slices are sized once in Init and never grow).
	nodes, dw, dscratch []float64
	lip                 ode.LIPEstimator
	engine              control.Engine // shared protected-step pipeline

	Stats Stats
}

// Init prepares the integrator; x0 is copied.
func (in *BDF) Init(sys ode.System, t0, tEnd float64, x0 la.Vec, h0 float64) {
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
	for _, v := range []*la.Vec{&in.xProp, &in.pred, &in.rhs, &in.resid, &in.delta, &in.ftmp, &in.fbase, &in.scratch, &in.errVec, &in.weights, &in.neg} {
		*v = la.NewVec(m)
	}
	in.nodes = make([]float64, 3)
	in.dw = make([]float64, 3)
	in.dscratch = make([]float64, 3)
	in.engine.Reset(m)
	in.Stats = Stats{}
}

// T returns the current time.
func (in *BDF) T() float64 { return in.t }

// X returns a view of the current solution.
func (in *BDF) X() la.Vec { return in.x }

// History returns the accepted-solution ring.
func (in *BDF) History() *ode.History { return in.hist }

// Done reports whether tEnd was reached.
func (in *BDF) Done() bool { return in.t >= in.tEnd-1e-14*math.Abs(in.tEnd) }

func (in *BDF) eval(t float64, x, dst la.Vec) {
	in.sys.Eval(t, x, dst)
	in.Stats.Evals++
}

// solveImplicit solves d0*x - f(tn, x) = -sum d_k x_{n-k} (already in rhs)
// by Newton iteration, starting from the predictor in xProp.
func (in *BDF) solveImplicit(tn, d0 float64) error {
	m := len(in.xProp)
	for iter := 0; iter < newtonMaxIter; iter++ {
		in.Stats.NewtonIters++
		in.eval(tn, in.xProp, in.ftmp)
		// resid = d0*x - f - rhs
		for i := 0; i < m; i++ {
			in.resid[i] = d0*in.xProp[i] - in.ftmp[i] - in.rhs[i]
		}
		rnorm := in.resid.Norm2()
		ref := 1 + in.ftmp.Norm2()
		if math.IsNaN(rnorm) || math.IsInf(rnorm, 0) || math.IsNaN(ref) || math.IsInf(ref, 0) {
			return fmt.Errorf("implicit: BDF Newton residual not finite")
		}
		if rnorm <= in.NewtonTol*in.Ctrl.TolA*ref*d0 || rnorm <= 1e-12*ref*math.Max(1, d0) {
			return nil
		}
		useDirect := !in.NoDirect && m <= DirectMaxDim
		if useDirect {
			neg := in.neg
			neg.CopyFrom(in.resid)
			neg.Scale(-1)
			if err := in.dsolver.solve(in.eval, tn, in.xProp, in.ftmp, d0, neg, in.delta); err != nil {
				return err
			}
			in.xProp.Add(in.delta)
			continue
		}
		in.fbase.CopyFrom(in.ftmp)
		baseNorm := in.xProp.Norm2()
		matvec := func(dst, v la.Vec) {
			vn := v.Norm2()
			if vn == 0 {
				dst.Zero()
				return
			}
			eps := 1e-7 * (1 + baseNorm) / vn
			in.scratch.CopyFrom(in.xProp)
			in.scratch.AXPY(eps, v)
			in.eval(tn, in.scratch, dst)
			for i := 0; i < m; i++ {
				dst[i] = d0*v[i] - (dst[i]-in.fbase[i])/eps
			}
		}
		in.delta.Zero()
		neg := in.neg
		neg.CopyFrom(in.resid)
		neg.Scale(-1)
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
		it, _, err := krylov.GMRES(matvec, neg, in.delta, opts)
		in.Stats.KrylovIters += int64(it)
		if err != nil {
			return fmt.Errorf("implicit: BDF linear solve: %w", err)
		}
		in.xProp.Add(in.delta)
	}
	return fmt.Errorf("implicit: BDF Newton did not converge")
}

// Step advances one accepted BDF step (order 1 on the first step, order 2
// afterwards).
func (in *BDF) Step() error {
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
		tn := in.t + h
		order := 2
		if in.hist.Len() < 2 {
			order = 1
		}

		// Differentiation weights over {t_n, t_{n-1}, (t_{n-2})}.
		nodes := in.nodes[:order+1]
		nodes[0] = tn
		for k := 1; k <= order; k++ {
			nodes[k] = in.hist.T(k - 1)
		}
		d := in.dw[:order+1]
		la.FirstDerivativeWeightsInto(d, in.dscratch[:order+1], tn, nodes)
		// rhs = -sum_{k>=1} d_k x_{n-k}
		in.rhs.Zero()
		for k := 1; k <= order; k++ {
			in.rhs.AXPY(-d[k], in.hist.X(k-1))
		}

		// Predictor: polynomial extrapolation of the history (order+1
		// points when available), which doubles as the error reference.
		predOrder := ode.MaxLIPOrder(in.hist, order)
		in.lip.Estimate(in.pred, in.hist, predOrder, tn)
		in.xProp.CopyFrom(in.pred)

		if err := in.solveImplicit(tn, d[0]); err != nil {
			in.Stats.RejectedNewton++
			h /= 2
			in.engine.BeginStep() // an aborted trial is not a recomputation
			continue
		}

		// Error estimate: a fixed fraction of corrector - predictor (the
		// classic Milne device up to a constant).
		in.errVec.CopyFrom(in.xProp)
		in.errVec.Sub(in.pred)
		in.errVec.Scale(1.0 / float64(order+1))

		// The shared protected-step pipeline. f(tn, xProp) was just computed
		// by the last Newton residual evaluation, but the detector recomputes
		// it cleanly (one eval, counted below on acceptance).
		chk := in.engine.Decide(&in.Ctrl, in.Stats.Steps, in.t, h,
			in.x, in.x, in.xProp, in.errVec, in.weights,
			in.hist, nil, in.sys, nil, nil)
		sErr1 := chk.SErr1
		if chk.ClassicReject {
			in.Stats.RejectedClassic++
			h = in.Ctrl.RejectStepSize(h, sErr1, order+1)
			continue
		}

		switch chk.Verdict {
		case ode.VerdictReject:
			in.Stats.RejectedValidator++
			continue
		case ode.VerdictFPRescue:
			in.Stats.FPRescues++
		}
		in.Stats.Evals += int64(chk.FPropEvals)

		in.t = tn
		in.x.CopyFrom(in.xProp)
		in.hist.Push(in.t, h, in.x)
		in.Stats.Steps++
		in.h = in.Ctrl.NewStepSize(h, sErr1, order+1)
		if in.MaxStep > 0 && in.h > in.MaxStep {
			in.h = in.MaxStep
		}
		return nil
	}
}

// Run advances to tEnd, returning the accepted steps taken.
func (in *BDF) Run() (int, error) {
	start := in.Stats.Steps
	for !in.Done() {
		if in.Stats.Steps-start >= in.MaxSteps {
			return in.Stats.Steps - start, fmt.Errorf("implicit: BDF exceeded MaxSteps at t=%g", in.t)
		}
		if err := in.Step(); err != nil {
			return in.Stats.Steps - start, err
		}
	}
	return in.Stats.Steps - start, nil
}
