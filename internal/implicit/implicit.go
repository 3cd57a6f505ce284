// Package implicit extends the study to implicit solvers — the future work
// the paper's conclusion announces ("We plan also to explore the use of the
// double-checking mechanism for implicit solvers"). It implements two
// stiff methods as trial methods of ode.Integrator, the one protected-step
// loop of the tree: an adaptive, L-stable SDIRK2(1) (Alexander's two-stage
// singly diagonally implicit Runge-Kutta method, gamma = 1 - 1/sqrt(2)) and
// a variable-step BDF2. Their Newton iterations solve each linear system by
// dense LU up to DirectMaxDim unknowns and by matrix-free GMRES above (or
// always, with NoDirect). The integrator supplies the controller, the
// validator seam and the observers, so the detectors in internal/core guard
// these methods unchanged.
package implicit

import (
	"math"

	"repro/internal/control"
	"repro/internal/krylov"
	"repro/internal/la"
)

// Gamma is the SDIRK2 diagonal coefficient 1 - 1/sqrt(2); with it the
// two-stage method is second order and L-stable.
var Gamma = 1 - 1/math.Sqrt2

// newtonMaxIter bounds the Newton iterations of one implicit solve.
const newtonMaxIter = 20

// SDIRK2 is the adaptive SDIRK2(1) method, an ode.Method: set it as an
// ode.Integrator's Method (with a nil Tab). Each stage K = f(t_s, base +
// h*Gamma*K) is solved by Newton iteration. The method is stiffly accurate
// (the second stage state is the new solution), which gives the
// integration-based double-checking its f(x_n) for free — the implicit
// analog of the FSAL property §V-B exploits.
type SDIRK2 struct {
	NewtonTol  float64 // nonlinear residual reduction (0 = 1e-3, scaled by TolA)
	KrylovOpts krylov.Options
	// NoDirect forces matrix-free Newton-Krylov; by default the dense-
	// Jacobian LU Newton path runs when the dimension is at most
	// DirectMaxDim.
	NoDirect bool

	newton
	k1, k2, base, stage la.Vec
	resid, ftmp         la.Vec
	xProp, errVec       la.Vec
}

// Start implements ode.Method.
func (s *SDIRK2) Start(sys control.System, ctrl *control.Controller, _ *control.History) {
	s.start(sys, ctrl, s.NewtonTol, s.NoDirect, s.KrylovOpts)
	m := sys.Dim()
	for _, v := range []*la.Vec{&s.k1, &s.k2, &s.base, &s.stage, &s.resid, &s.ftmp, &s.xProp, &s.errVec} {
		*v = la.NewVec(m)
	}
}

// Trial implements ode.Method. It warm-starts the first stage from a fresh
// f(t, x) and ignores the carried k1; the hook sees each converged stage
// (indices 0 and 1). K2 = f(t+h, XProp) by stiff accuracy, so it is the
// free FProp.
func (s *SDIRK2) Trial(t, h float64, x, _ la.Vec, hook control.StageHook) *control.TrialResult {
	s.evals = 0
	// The 2(1) pair's step law uses p^ + 1 = 2.
	res := s.res.Begin(s.xProp, s.errVec, s.k2, 2)
	// Stage 1: K1 = f(t + Gamma h, x + h Gamma K1); warm start from f(t, x).
	s.eval(t, x, s.k1)
	if !s.solveStage(t+Gamma*h, h, x, s.k1) {
		return s.abort(res)
	}
	if hook != nil {
		res.Injections += hook(0, t+Gamma*h, s.k1)
	}
	// Stage 2: base = x + h(1-Gamma) K1; K2 = f(t+h, base + h Gamma K2).
	s.base.CopyFrom(x)
	s.base.AXPY(h*(1-Gamma), s.k1)
	s.k2.CopyFrom(s.k1)
	if !s.solveStage(t+h, h, s.base, s.k2) {
		return s.abort(res)
	}
	if hook != nil {
		res.Injections += hook(1, t+h, s.k2)
	}
	res.Evals = s.evals
	// Proposal (stiffly accurate): x + h((1-Gamma)K1 + Gamma K2).
	s.xProp.CopyFrom(x)
	s.xProp.AXPY(h*(1-Gamma), s.k1)
	s.xProp.AXPY(h*Gamma, s.k2)
	// Embedded first-order comparison: backward-Euler-flavored weights
	// bhat = (1/2, 1/2): err = h((1-Gamma)-1/2)(K1 - K2).
	s.errVec.CopyFrom(s.k1)
	s.errVec.Sub(s.k2)
	s.errVec.Scale(h * ((1 - Gamma) - 0.5))
	return res
}

// solveStage solves K = f(ts, base + h*Gamma*K) by Newton iteration. K
// holds the initial guess and the result; false means the solve failed.
func (s *SDIRK2) solveStage(ts, h float64, base, K la.Vec) bool {
	hg := h * Gamma
	for iter := 0; iter < newtonMaxIter; iter++ {
		s.newtonIters++
		// stage = base + hg*K ; resid = K - f(ts, stage)
		s.stage.CopyFrom(base)
		s.stage.AXPY(hg, K)
		s.eval(ts, s.stage, s.ftmp)
		s.resid.CopyFrom(K)
		s.resid.Sub(s.ftmp)
		rnorm, ref := s.resid.Norm2(), 1+s.ftmp.Norm2()
		if !finite(rnorm, ref) {
			return false
		}
		// Newton is converged when the residual is far below the
		// integration tolerance in the scaled norm.
		if rnorm <= s.tol*s.ctrl.TolA*ref/(math.Max(h, 1e-300)) || rnorm <= 1e-12*ref {
			return true
		}
		// The residual's Jacobian in K is (I - hg*J).
		if !s.correct(ts, s.stage, s.ftmp, s.resid, 1, hg) {
			return false
		}
		K.Add(s.delta)
	}
	return false
}

// newton is the Newton machinery SDIRK2 and BDF2 share: the bound system and
// controller, the settings as of Start, the linear solve of one iteration,
// the evaluation and work counters, and the record Trial returns.
type newton struct {
	sys      control.System
	ctrl     *control.Controller
	tol      float64
	noDirect bool
	opts     krylov.Options

	dsolver           directSolver
	delta, neg        la.Vec
	jvBase, jvScratch la.Vec

	evals       int // evaluations of the current trial
	newtonIters int64
	krylovIters int64

	res control.TrialResult
}

// start binds the solver to one integration and resets its counters.
func (n *newton) start(sys control.System, ctrl *control.Controller, tol float64, noDirect bool, opts krylov.Options) {
	if tol == 0 {
		tol = 1e-3
	}
	n.sys, n.ctrl, n.tol, n.noDirect, n.opts = sys, ctrl, tol, noDirect, opts
	m := sys.Dim()
	for _, v := range []*la.Vec{&n.delta, &n.neg, &n.jvBase, &n.jvScratch} {
		*v = la.NewVec(m)
	}
	n.evals, n.newtonIters, n.krylovIters = 0, 0, 0
}

// Iterations reports the Newton iterations and the GMRES iterations the
// method ran since the integrator's Init.
func (n *newton) Iterations() (newtonIters, krylovIters int64) {
	return n.newtonIters, n.krylovIters
}

// abort marks res as a trial that produced no proposal.
func (n *newton) abort(res *control.TrialResult) *control.TrialResult {
	res.Evals, res.Aborted = n.evals, true
	return res
}

// eval evaluates the right-hand side, counting the evaluation.
func (n *newton) eval(t float64, x, dst la.Vec) {
	n.sys.Eval(t, x, dst)
	n.evals++
}

// correct solves (a*I - b*J) delta = -resid for the Newton correction
// n.delta, with J the Jacobian of f(t, .) at state and fState = f(t, state);
// false means the linear solve failed. The dense path factors
// b*((a/b)*I - J); the matrix-free path runs GMRES on finite-difference
// Jacobian-vector products.
func (n *newton) correct(t float64, state, fState, resid la.Vec, a, b float64) bool {
	m := len(state)
	n.neg.CopyFrom(resid)
	if !n.noDirect && m <= DirectMaxDim {
		n.neg.Scale(-1 / b)
		return n.dsolver.solve(n.eval, t, state, fState, a/b, n.neg, n.delta) == nil
	}
	n.neg.Scale(-1)
	n.jvBase.CopyFrom(fState)
	stateNorm := state.Norm2()
	matvec := func(dst, v la.Vec) {
		vn := v.Norm2()
		if vn == 0 {
			dst.Zero()
			return
		}
		eps := 1e-7 * (1 + stateNorm) / vn
		n.jvScratch.CopyFrom(state)
		n.jvScratch.AXPY(eps, v)
		n.eval(t, n.jvScratch, dst)
		// dst = a*v - b*(f(state+eps v) - f(state))/eps
		for i := 0; i < m; i++ {
			dst[i] = a*v[i] - b*(dst[i]-n.jvBase[i])/eps
		}
	}
	n.delta.Zero()
	opts := n.opts
	if opts.Tol == 0 {
		opts.Tol = 1e-4
	}
	if opts.MaxIter == 0 {
		opts.MaxIter = min(10*m, 300)
	}
	it, _, err := krylov.GMRES(matvec, n.neg, n.delta, opts)
	n.krylovIters += int64(it)
	return err == nil
}

// finite reports whether every value is neither NaN nor infinite.
func finite(vs ...float64) bool {
	for _, v := range vs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
