package ode

import "repro/internal/control"

// The building blocks of the protected step — the system/tableau vocabulary,
// the classic controller, the solution history, and the validator seam — are
// implemented once in internal/control; this package re-exports them so
// solver code and its callers keep their established names. The aliases are
// true type identities: an ode.Validator IS a control.Validator, so the
// detectors in internal/core and the control.Registry factories plug into
// every integrator without conversion.

// System, Func, CountingSystem, and StageHook name the right-hand-side
// vocabulary shared by all solvers.
type (
	System         = control.System
	Func           = control.Func
	CountingSystem = control.CountingSystem
	StageHook      = control.StageHook
)

// Controller is the classic adaptive step controller (§III-B).
type Controller = control.Controller

// DefaultController returns the paper's controller settings with the given
// tolerances.
func DefaultController(tolA, tolR float64) Controller {
	return control.DefaultController(tolA, tolR)
}

// History is the ring buffer of recently accepted solutions.
type History = control.History

// NewHistory returns a ring holding up to depth accepted solutions of
// dimension m.
func NewHistory(depth, m int) *History { return control.NewHistory(depth, m) }

// Tableau is an explicit embedded Runge-Kutta pair in Butcher form; the
// named pairs (HeunEuler, BogackiShampine, ...) are constructed in
// tableau.go.
type Tableau = control.Tableau

// TrialResult is the outcome of one trial step before any accept/reject
// decision.
type TrialResult = control.TrialResult

// Verdict is a Validator's decision about a controller-accepted trial step.
type Verdict = control.Verdict

// The verdicts.
const (
	VerdictAccept   = control.VerdictAccept
	VerdictReject   = control.VerdictReject
	VerdictFPRescue = control.VerdictFPRescue
)

// Validator double-checks trial steps the classic controller accepted.
type Validator = control.Validator

// CheckContext gives a Validator the full view of a controller-accepted
// trial step.
type CheckContext = control.CheckContext
