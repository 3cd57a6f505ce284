package implicit

import (
	"math"

	"repro/internal/control"
	"repro/internal/krylov"
	"repro/internal/la"
	"repro/internal/ode"
)

// BDF2 is the adaptive variable-step BDF2 method, an ode.Method: set it as
// an ode.Integrator's Method (with a nil Tab). It is the production form of
// the backward differentiation formulas whose prediction step powers the
// paper's integration-based double-checking (§V-B). The first step
// bootstraps with backward Euler (BDF1); afterwards the variable-step BDF2
// coefficients are generated from the same Fornberg differentiation weights
// the IBDC estimate uses, over the integrator's accepted-solution history,
// and the local error is estimated from the deviation of the corrected
// solution from the polynomial extrapolation predictor. The corrector is
// solved by Newton iteration.
type BDF2 struct {
	NewtonTol  float64 // nonlinear residual reduction (0 = 1e-3, scaled by TolA)
	KrylovOpts krylov.Options
	// NoDirect selects the Newton linear solver as in SDIRK2.
	NoDirect bool

	newton
	hist                *control.History
	xProp, pred, rhs    la.Vec
	resid, ftmp, errVec la.Vec
	nodes, dw, dscratch [3]float64 // order + 1 <= 3 entries
	lip                 ode.LIPEstimator
}

// Start implements ode.Method.
func (b *BDF2) Start(sys control.System, ctrl *control.Controller, hist *control.History) {
	b.start(sys, ctrl, b.NewtonTol, b.NoDirect, b.KrylovOpts)
	b.hist = hist
	m := sys.Dim()
	for _, v := range []*la.Vec{&b.xProp, &b.pred, &b.rhs, &b.resid, &b.ftmp, &b.errVec} {
		*v = la.NewVec(m)
	}
}

// Trial implements ode.Method: one BDF step of order 1 on the first step and
// 2 afterwards, with x as x_{n-1} and the older solutions from the history.
// It exposes no stage evaluation to the hook and ignores the carried k1;
// the double-check evaluates f(t+h, XProp) itself.
func (b *BDF2) Trial(t, h float64, x, _ la.Vec, _ control.StageHook) *control.TrialResult {
	b.evals = 0
	tn := t + h
	order := 2
	if b.hist.Len() < 2 {
		order = 1
	}
	res := b.res.Begin(b.xProp, b.errVec, nil, order+1)

	// Differentiation weights over {t_n, t_{n-1}, (t_{n-2})}.
	nodes := b.nodes[:order+1]
	nodes[0] = tn
	for k := 1; k <= order; k++ {
		nodes[k] = b.hist.T(k - 1)
	}
	d := b.dw[:order+1]
	la.FirstDerivativeWeightsInto(d, b.dscratch[:order+1], tn, nodes)
	// rhs = -sum_{k>=1} d_k x_{n-k}
	b.rhs.Zero()
	b.rhs.AXPY(-d[1], x)
	for k := 2; k <= order; k++ {
		b.rhs.AXPY(-d[k], b.hist.X(k-1))
	}

	// Predictor: polynomial extrapolation of the history (order+1 points
	// when available), which doubles as the error reference.
	b.lip.Estimate(b.pred, b.hist, ode.MaxLIPOrder(b.hist, order), tn)
	b.xProp.CopyFrom(b.pred)
	if !b.solveCorrector(tn, d[0]) {
		return b.abort(res)
	}

	// Error estimate: a fixed fraction of corrector - predictor (the
	// classic Milne device up to a constant).
	b.errVec.CopyFrom(b.xProp)
	b.errVec.Sub(b.pred)
	b.errVec.Scale(1.0 / float64(order+1))
	res.Evals = b.evals
	return res
}

// solveCorrector solves d0*x - f(tn, x) = -sum d_k x_{n-k} (already in rhs)
// by Newton iteration, starting from the predictor in xProp; false means
// the solve failed.
func (b *BDF2) solveCorrector(tn, d0 float64) bool {
	m := len(b.xProp)
	for iter := 0; iter < newtonMaxIter; iter++ {
		b.newtonIters++
		b.eval(tn, b.xProp, b.ftmp)
		// resid = d0*x - f - rhs
		for i := 0; i < m; i++ {
			b.resid[i] = d0*b.xProp[i] - b.ftmp[i] - b.rhs[i]
		}
		rnorm, ref := b.resid.Norm2(), 1+b.ftmp.Norm2()
		if !finite(rnorm, ref) {
			return false
		}
		if rnorm <= b.tol*b.ctrl.TolA*ref*d0 || rnorm <= 1e-12*ref*math.Max(1, d0) {
			return true
		}
		// The residual's Jacobian is (d0*I - J).
		if !b.correct(tn, b.xProp, b.ftmp, b.resid, d0, 1) {
			return false
		}
		b.xProp.Add(b.delta)
	}
	return false
}
