package control

import "repro/internal/la"

// TrialResult is the outcome of one trial step before any accept/reject
// decision (ode.Stepper.Trial, or an implicit method's Trial). A method
// returns a pointer to a record it owns: the record and its vectors, which
// are views into the method's buffers, are valid until the method's next
// Trial call. Copy what must be retained.
type TrialResult struct {
	XProp      la.Vec // proposed solution x_{n+1}
	ErrVec     la.Vec // embedded LTE estimate x_{n+1} - x~_{n+1}
	FProp      la.Vec // f(t+h, x_{n+1}) when the method has it for free, else nil
	Injections int    // corruptions applied by the stage hook during this trial
	// LastStageInjections counts corruptions of the final stage alone; for
	// FSAL pairs that stage is reused as the next step's first stage, so its
	// corruption propagates across the step boundary.
	LastStageInjections int
	Evals               int // fresh right-hand-side evaluations performed
	// ControlOrder is the exponent p̂+1 of the step law (Eq. 5) for this
	// trial's error estimate.
	ControlOrder int
	// Aborted marks a trial that produced no proposal (an implicit stage
	// solve that failed); only the counters above are meaningful.
	Aborted bool
}

// Begin resets r for a new trial whose proposal, error estimate and free
// FProp (nil when the method has none) live in the given vectors, with the
// counters at zero, and returns r. It writes field by field, so a method
// reusing one record per trial copies no composite value.
func (r *TrialResult) Begin(xProp, errVec, fProp la.Vec, controlOrder int) *TrialResult {
	r.XProp, r.ErrVec, r.FProp = xProp, errVec, fProp
	r.Injections, r.LastStageInjections, r.Evals = 0, 0, 0
	r.ControlOrder = controlOrder
	r.Aborted = false
	return r
}
