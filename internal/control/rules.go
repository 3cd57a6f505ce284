package control

import (
	"math"

	"repro/internal/la"
)

// The accept/reject predicates of the protected step. These four functions
// and RescueLatch are the only implementation of the classic-reject rule,
// the detector-reject rule, and the elementary step-factor arithmetic in the
// tree; every solver (ode, implicit, dist) calls through here, so the
// NaN-poisoning rules cannot drift between copies again.

// ClassicReject decides the classic controller's verdict for the scaled
// error SErr_1: the trial is rejected when the estimate exceeds the
// tolerance or is NaN. Every ordered comparison with NaN is false, so a
// plain `sErr > 1` guard would fall through to acceptance — the exact
// silent-corruption hazard this solver exists to catch. (+Inf estimates
// reject through the sErr > 1 branch.)
func ClassicReject(sErr1 float64) bool {
	return math.IsNaN(sErr1) || sErr1 > 1
}

// DetectorReject decides the double-check's verdict for the second scaled
// estimate SErr_2, with the same NaN-rejects rule as ClassicReject.
func DetectorReject(sErr2 float64) bool {
	return math.IsNaN(sErr2) || sErr2 > 1
}

// ElementaryRejectFactor returns the step-contraction factor for a rejected
// trial under the elementary controller of Eq. (5) at control order 2:
// capped at 1 so a rejection never grows the step. A NaN scaled error
// carries no size information and contracts maximally.
func ElementaryRejectFactor(sErr float64) float64 {
	if math.IsNaN(sErr) {
		return alphaMin
	}
	return math.Min(1, math.Max(alphaMin, alpha*math.Pow(1/sErr, 0.5)))
}

// ElementaryAcceptFactor returns the post-acceptance step factor under the
// elementary controller of Eq. (5) at control order 2; the 1e-12 floor
// keeps a vanishing scaled error from producing an infinite factor before
// the alphaMax cap applies.
func ElementaryAcceptFactor(sErr float64) float64 {
	return math.Min(alphaMax, math.Max(alphaMin, alpha*math.Pow(1/math.Max(sErr, 1e-12), 0.5)))
}

// RescueLatch is the false-positive self-detection state of Algorithm 1 in
// its minimal, policy-free form (used by the distributed solver, which
// recomputes in lockstep but adapts no order): after a detector rejection,
// a recomputation at the same step size that reproduces the bit-identical
// scaled error must have been clean, so the check is skipped and the step
// accepted.
type RescueLatch struct {
	lastSErr float64
	armed    bool
}

// Rescued reports whether sErr reproduces the scaled error latched by the
// last detector rejection — the ExactEq comparison is deliberately bitwise
// (a clean recomputation at the same h is deterministic).
func (l *RescueLatch) Rescued(sErr float64) bool {
	return l.armed && la.ExactEq(sErr, l.lastSErr)
}

// Arm latches the scaled error of a just-rejected trial.
func (l *RescueLatch) Arm(sErr float64) {
	l.lastSErr = sErr
	l.armed = true
}

// Disarm clears the latch (call on every acceptance).
func (l *RescueLatch) Disarm() { l.armed = false }
