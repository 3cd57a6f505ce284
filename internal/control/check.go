package control

import "repro/internal/la"

// Verdict is a Validator's decision about a controller-accepted trial step.
type Verdict int

const (
	// VerdictAccept validates the step.
	VerdictAccept Verdict = iota
	// VerdictReject asks the integrator to recompute the step with the same
	// step size (so that a clean recomputation reproduces the identical
	// scaled error, enabling false-positive self-detection).
	VerdictReject
	// VerdictFPRescue accepts the step because the validator recognized its
	// own previous rejection as a false positive (Algorithm 1's
	// SErr_1 == lastSErr branch). Counted separately in the statistics.
	VerdictFPRescue
)

// Validator double-checks trial steps that the classic adaptive controller
// already accepted (SErr_1 <= 1), or every trial of a fixed-step
// integration, which has no classic test. This is the seam where the
// paper's contribution and the related-work detectors (internal/core) plug
// into the solvers.
type Validator interface {
	Validate(c *CheckContext) Verdict
}

// CheckContext gives a Validator the full view of a controller-accepted
// trial step. Vector fields are views valid only during the Validate call.
type CheckContext struct {
	StepIndex int     // index of the step under construction (0-based)
	T         float64 // time at the start of the step
	H         float64 // trial step size; the proposed solution lives at T+H
	XStart    la.Vec  // state the trial actually read (may carry a state SDC)
	XStored   la.Vec  // the stored solution at T (a replica's independent copy)
	XProp     la.Vec  // proposed solution
	ErrVec    la.Vec  // the embedded error estimate vector x - x~
	SErr1     float64 // the classic controller's scaled error
	Weights   la.Vec  // componentwise error level Err (TolA + TolR|x|)
	Hist      *History
	Ctrl      *Controller
	Tab       *Tableau
	// Recomputation is true when the immediately preceding trial of this
	// same step was rejected by the Validator (not by the controller), so
	// the current trial reran with an identical step size.
	Recomputation bool

	sys        System    // evaluates FProp when no FSAL stage supplies it
	hook       StageHook // exposes the FProp evaluation to fault injection
	fsalFProp  la.Vec
	fProp      la.Vec
	fPropDone  bool
	fPropInjs  int
	fPropEvals int

	// Observability report filled in by the Validator via ReportCheck.
	checkSErr2    float64
	checkQ        int
	checkC        int
	checkReported bool
}

// ReportCheck lets a Validator expose the internals of the double-check it
// just performed — the second scaled estimate SErr_2 and Algorithm 1's
// order-adaptation state (current order q and checks c since the last
// order selection) — so the integrator's tracer can record them. Pass
// sErr2 < 0 when no second estimate was computed (e.g. a false-positive
// rescue), and q or c as -1 when the detector has no such state.
func (c *CheckContext) ReportCheck(sErr2 float64, q, checksInWindow int) {
	c.checkSErr2, c.checkQ, c.checkC = sErr2, q, checksInWindow
	c.checkReported = true
}

// CheckReport returns the values of the last ReportCheck call, with
// ok = false when the Validator reported nothing.
func (c *CheckContext) CheckReport() (sErr2 float64, q, checksInWindow int, ok bool) {
	return c.checkSErr2, c.checkQ, c.checkC, c.checkReported
}

// FPropEvals reports how many fresh evaluations FProp performed (0 or 1).
func (c *CheckContext) FPropEvals() int { return c.fPropEvals }

// FProp returns f(T+H, XProp), the right-hand side at the proposed solution
// needed by the integration-based double-checking. For FSAL pairs it is the
// last stage and free; otherwise it is evaluated once, cached, exposed to
// the stage hook (as pseudo-stage index Tab.Stages(), or 0 for a method
// without a tableau), and reused as the first stage of the next step if the
// step is accepted — the paper's "no extra computation when the step is
// accepted" property.
func (c *CheckContext) FProp() la.Vec {
	if c.fsalFProp != nil {
		return c.fsalFProp
	}
	if !c.fPropDone {
		if c.fProp == nil {
			//lint:allow allocfree -- one-time scratch for non-FSAL pairs: sized on the first check, reused forever after
			c.fProp = la.NewVec(len(c.XProp))
		}
		if c.sys == nil {
			panic("control: CheckContext has no way to evaluate FProp")
		}
		c.sys.Eval(c.T+c.H, c.XProp, c.fProp)
		c.fPropEvals++
		if c.hook != nil {
			stage := 0
			if c.Tab != nil {
				stage = c.Tab.Stages()
			}
			c.fPropInjs += c.hook(stage, c.T+c.H, c.fProp)
		}
		c.fPropDone = true
	}
	return c.fProp
}
