package control

import "repro/internal/la"

// TrialResult is the outcome of one trial step before any accept/reject
// decision (ode.Stepper.Trial, or an implicit method's Trial). The vectors
// are views into the method's buffers: they are valid until the next Trial
// call and must be copied to be retained.
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
