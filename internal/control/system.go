// Package control is the single implementation of the paper's protected-step
// protocol. Every solver in the tree — the explicit embedded-RK integrator in
// internal/ode, the implicit SDIRK/BDF integrators in internal/implicit, and
// the distributed method-of-lines solvers in internal/dist — drives its
// accept/reject decisions through this package, so the classic acceptance
// test, the second error estimate, and Algorithm 1's order adaptation exist
// exactly once.
//
// The pipeline is built from three small pieces, applied to each candidate
// step a solver proposes (a TrialResult, for ode.Stepper):
//
//   - Controller is the classic adaptive accept/reject with the elementary
//     step-size law of Eq. (5), including the NaN-poisoning rules.
//   - Validator double-checks controller-accepted trials with a second,
//     differently structured estimate (LBDC, IBDC, replication, TMR,
//     Richardson, oracle — implemented in internal/core).
//   - Policy is Algorithm 1's (q, c) order-adaptation state machine with the
//     false-positive-rescue bookkeeping.
//
// Engine composes Controller and Validator into the per-trial decision that
// the integrators call, and the detector Registry maps detector names to
// Validator factories so harnesses and CLIs share one detector catalogue.
package control

import "repro/internal/la"

// System is an initial-value problem right-hand side x'(t) = f(t, x).
type System interface {
	// Dim returns the dimension m of the state vector.
	Dim() int
	// Eval computes dst = f(t, x). dst and x never alias.
	Eval(t float64, x la.Vec, dst la.Vec)
}

// Func adapts a plain function to the System interface.
type Func struct {
	N int
	F func(t float64, x la.Vec, dst la.Vec)
}

// Dim implements System.
func (f Func) Dim() int { return f.N }

// Eval implements System.
func (f Func) Eval(t float64, x la.Vec, dst la.Vec) { f.F(t, x, dst) }

// CountingSystem wraps a System and counts right-hand-side evaluations;
// the computational-overhead experiments (Table IV) compare these counts.
type CountingSystem struct {
	Sys   System
	Evals int64
}

// Dim implements System.
func (c *CountingSystem) Dim() int { return c.Sys.Dim() }

// Eval implements System.
func (c *CountingSystem) Eval(t float64, x la.Vec, dst la.Vec) {
	c.Evals++
	c.Sys.Eval(t, x, dst)
}

// StageHook is invoked after each stage derivative K_i has been computed
// during a trial step; k may be mutated in place (that is how SDC injection
// corrupts function evaluations). stage is the zero-based stage index, t the
// stage abscissa. The returned count reports how many corruptions were
// applied (0 for a benign observer).
type StageHook func(stage int, t float64, k la.Vec) int
