package control

import "repro/internal/la"

// Check is the outcome of one protected-step decision — everything an
// integrator needs to accept, classic-reject, or recompute a trial, plus the
// observability fields its tracer records. Decide returns the engine's own
// record: it and its vector fields, views into engine-owned buffers, are
// valid until the next Decide call.
type Check struct {
	SErr1         float64 // classic scaled error (+Inf for NaN/Inf-poisoned proposals)
	ClassicReject bool    // trial failed the classic test; the Validator never ran
	Verdict       Verdict // the Validator's verdict (VerdictAccept when none ran)

	// Observability report of the double-check (CheckContext.ReportCheck):
	// -1 when no validator ran or it reported nothing.
	SErr2     float64
	DetOrder  int
	DetWindow int

	EstimateInjections int    // corruptions of the double-check's extra evaluation
	FPropEvals         int    // fresh evaluations the double-check performed (0 or 1)
	FProp              la.Vec // f(T+H, XProp) if the validator evaluated it, else nil
}

// Accepted reports whether the trial passed both the classic test and the
// validator.
func (c *Check) Accepted() bool {
	return !c.ClassicReject && c.Verdict != VerdictReject
}

// Engine composes the Controller's classic acceptance test with the
// Validator's double-check into the one protected-step decision every
// integrator calls. It owns the Check it returns, the CheckContext scratch
// and the persistent FProp buffer, so steady-state decisions allocate and
// copy nothing, and it carries the recomputation latch that tells the
// Validator a trial reran at the same step size after its own rejection.
type Engine struct {
	Validator Validator

	chk          Check
	ctx          CheckContext
	fPropBuf     la.Vec
	rejectedLast bool
}

// Reset prepares the engine for a new integration of dimension m, reusing
// the FProp buffer when the dimension is unchanged.
func (e *Engine) Reset(m int) {
	if len(e.fPropBuf) != m {
		e.fPropBuf = la.NewVec(m)
	}
	e.ctx = CheckContext{}
	e.rejectedLast = false
}

// BeginStep clears the recomputation latch. Call it when a new step index
// begins (and after an aborted trial, e.g. a failed implicit stage solve):
// the next trial is then not a validator-triggered recomputation.
func (e *Engine) BeginStep() { e.rejectedLast = false }

// Decide runs the protected-step decision on one completed trial: it scores
// the proposal (weights are refreshed in place unless the proposal is
// NaN/Inf-poisoned, in which case SErr1 is +Inf; with ctrl.Ranks set, the
// screen and the norms cover every rank), applies the classic test,
// and hands survivors to the Validator with a fully populated CheckContext.
// hist, tab, sys, and hook flow through to the Validator's second estimate;
// fsalFProp, when non-nil, supplies f(T+H, XProp) for free. fixedStep, the
// integrator's constant-step mode, skips the classic test, its NaN screen
// included: every trial goes to the Validator, and an unguarded trial is
// accepted as computed. The returned Check is the engine's, valid until the
// next Decide.
//
// Its one non-test caller is ode.Integrator.Step, the protected-step loop
// of every serial, implicit and distributed solve. It must not allocate in
// steady state (see the allocfree gate in cmd/sdcvet). The Check and the
// CheckContext are refreshed field by field rather than assigned from
// composite literals, which the compiler would build and copy whole.
func (e *Engine) Decide(ctrl *Controller, step int, t, h float64,
	xStart, xStored, xProp, errVec, weights la.Vec,
	hist *History, tab *Tableau, sys System, hook StageHook, fsalFProp la.Vec, fixedStep bool) *Check {
	chk := &e.chk
	chk.SErr1 = ctrl.Score(weights, xProp, errVec)
	chk.ClassicReject = false
	chk.Verdict = VerdictAccept
	chk.SErr2, chk.DetOrder, chk.DetWindow = -1, -1, -1
	chk.EstimateInjections, chk.FPropEvals = 0, 0
	chk.FProp = nil
	if !fixedStep && ClassicReject(chk.SErr1) {
		chk.ClassicReject = true
		e.rejectedLast = false
		return chk
	}
	if e.Validator == nil {
		return chk
	}
	// ctx is engine-owned scratch; fPropBuf persists across trials so
	// CheckContext.FProp never reallocates its storage.
	c := &e.ctx
	c.StepIndex = step
	c.T, c.H = t, h
	c.XStart, c.XStored, c.XProp, c.ErrVec = xStart, xStored, xProp, errVec
	c.SErr1, c.Weights = chk.SErr1, weights
	c.Hist, c.Ctrl, c.Tab = hist, ctrl, tab
	c.Recomputation = e.rejectedLast
	c.sys, c.hook, c.fsalFProp, c.fProp = sys, hook, fsalFProp, e.fPropBuf
	c.fPropDone, c.fPropInjs, c.fPropEvals = false, 0, 0
	c.checkReported = false
	chk.Verdict = e.Validator.Validate(c)
	chk.EstimateInjections = c.fPropInjs
	chk.FPropEvals = c.fPropEvals
	if sErr2, q, cWin, ok := c.CheckReport(); ok {
		chk.SErr2, chk.DetOrder, chk.DetWindow = sErr2, q, cWin
	}
	if c.fPropDone {
		chk.FProp = c.fProp
	}
	e.rejectedLast = chk.Verdict == VerdictReject
	return chk
}
