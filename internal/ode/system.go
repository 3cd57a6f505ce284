// Package ode implements the adaptive numerical integration solvers that the
// SDC-detection study targets: the named explicit embedded Runge-Kutta pairs
// (Heun-Euler 2(1), Bogacki-Shampine 3(2), Dormand-Prince 5(4), and others),
// the explicit-RK Stepper, the protected-step Integrator, and the two
// families of second error estimates used by double-checking: Lagrange
// interpolating polynomials (LIP) and variable-step backward differentiation
// formulas (BDF).
//
// The package deliberately exposes the raw mechanics (trial steps, stage
// hooks, validators) so the fault-injection harness can corrupt stage
// evaluations and the detectors in internal/core can veto acceptances. The
// vocabulary these are written in — control.System, control.Tableau, the
// PETSc-style control.Controller (scaled WRMS error, step law
// h_new = h*min(10, max(0.1, 0.9*(1/SErr)^(1/(p̂+1)))), §III-B of the
// paper), the control.History ring, control.TrialResult and the
// control.Validator seam — and the protected-step decision itself (classic
// test, validator double-check, Algorithm 1 order policy) live in
// internal/control. Integrator is the one protected-step loop of the tree:
// the implicit methods (internal/implicit) and the distributed ranks
// (internal/dist) run on it through its Method seam.
package ode
