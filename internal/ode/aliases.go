package ode

import "repro/internal/control"

// System is the right-hand-side interface.
//
// Deprecated: use control.System. Only the benchmark module still names
// this alias; it goes when that module moves to the control names.
type System = control.System

// CountingSystem wraps a System and counts its evaluations.
//
// Deprecated: use control.CountingSystem. Only the benchmark module still
// names this alias; it goes when that module moves to the control names.
type CountingSystem = control.CountingSystem

// Tableau is an explicit embedded Runge-Kutta pair in Butcher form.
//
// Deprecated: use control.Tableau. Only the benchmark module still names
// this alias; it goes when that module moves to the control names.
type Tableau = control.Tableau

// DefaultController returns the paper's controller settings with the given
// tolerances.
//
// Deprecated: use control.DefaultController. Only the benchmark module
// still calls this wrapper; it goes when that module moves to the control
// names.
func DefaultController(tolA, tolR float64) control.Controller {
	return control.DefaultController(tolA, tolR)
}
