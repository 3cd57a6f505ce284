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
	// staged marks e.ctx as primed by the lane-planar path (stage), whose
	// fast re-stage rewrites only the per-trial scalars. Decide and Reset
	// clear it, forcing the next stage to rebuild the context in full.
	staged bool
}

// Reset prepares the engine for a new integration of dimension m, reusing
// the FProp buffer when the dimension is unchanged.
func (e *Engine) Reset(m int) {
	if len(e.fPropBuf) != m {
		e.fPropBuf = la.NewVec(m)
	}
	e.ctx = CheckContext{}
	e.rejectedLast = false
	e.staged = false
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
// fsalFProp, when non-nil, supplies f(T+H, XProp) for free. The returned
// Check is the engine's, valid until the next Decide.
//
// Its one non-test caller is ode.Integrator.Step, the protected-step loop
// of every serial, implicit and distributed solve. It must not allocate in
// steady state (see the allocfree gate in cmd/sdcvet). The Check and the
// CheckContext are refreshed field by field rather than assigned from
// composite literals, which the compiler would build and copy whole.
func (e *Engine) Decide(ctrl *Controller, step int, t, h float64,
	xStart, xStored, xProp, errVec, weights la.Vec,
	hist *History, tab *Tableau, sys System, hook StageHook, fsalFProp la.Vec) *Check {
	chk := &e.chk
	chk.SErr1 = ctrl.Score(weights, xProp, errVec)
	chk.ClassicReject = false
	chk.Verdict = VerdictAccept
	chk.SErr2, chk.DetOrder, chk.DetWindow = -1, -1, -1
	chk.EstimateInjections, chk.FPropEvals = 0, 0
	chk.FProp = nil
	if ClassicReject(chk.SErr1) {
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
	e.staged = false // any staged lane context is gone
	chk.Verdict = e.Validator.Validate(c)
	e.harvest(chk)
	return chk
}

// harvest copies the validator's observable outcome out of the engine-owned
// context into chk and advances the recomputation latch — the shared tail of
// the scalar Decide and every lane-planar decision path, extracted so the
// two cannot drift.
func (e *Engine) harvest(chk *Check) {
	chk.EstimateInjections = e.ctx.fPropInjs
	chk.FPropEvals = e.ctx.fPropEvals
	if sErr2, q, cWin, ok := e.ctx.CheckReport(); ok {
		chk.SErr2, chk.DetOrder, chk.DetWindow = sErr2, q, cWin
	}
	if e.ctx.fPropDone {
		chk.FProp = e.ctx.fProp
	}
	e.rejectedLast = chk.Verdict == VerdictReject
}

// stage primes the engine's context for one lane-planar decision with the
// same field-for-field content Decide would build. The first call after
// Reset (or after a scalar Decide) writes the context in full; later calls
// rewrite only the per-trial scalars and transients, relying on the
// lane-planar caller's contract that a lane's backing buffers (XStored,
// XProp, ErrVec, Weights, Hist, Sys, Hook) keep their identity between
// Engine.Reset calls.
func (e *Engine) stage(ctrl *Controller, tab *Tableau, ld *LaneDecide, sErr1 float64) {
	if !e.staged {
		e.ctx = CheckContext{
			StepIndex: ld.Step,
			T:         ld.T, H: ld.H,
			XStart: ld.XStart, XStored: ld.XStored, XProp: ld.XProp, ErrVec: ld.ErrVec,
			SErr1: sErr1, Weights: ld.Weights,
			Hist: ld.Hist, Ctrl: ctrl, Tab: tab,
			Recomputation: e.rejectedLast,
			sys:           ld.Sys,
			hook:          ld.Hook,
			fsalFProp:     ld.Fsal,
			fProp:         e.fPropBuf,
		}
		e.staged = true
		return
	}
	c := &e.ctx
	c.StepIndex = ld.Step
	c.T, c.H = ld.T, ld.H
	c.XStart = ld.XStart
	c.SErr1 = sErr1
	c.Recomputation = e.rejectedLast
	c.fsalFProp = ld.Fsal
	c.fPropDone = false
	c.fPropInjs = 0
	c.fPropEvals = 0
	c.checkReported = false
}
