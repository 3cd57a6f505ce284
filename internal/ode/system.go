// Package ode implements the adaptive numerical integration solvers that the
// SDC-detection study targets: explicit embedded Runge-Kutta pairs
// (Heun-Euler 2(1), Bogacki-Shampine 3(2), Dormand-Prince 5(4), and others),
// the PETSc-style adaptive step controller (scaled WRMS error, step law
// h_new = h*min(10, max(0.1, 0.9*(1/SErr)^(1/(p̂+1)))), §III-B of the paper),
// a solution-history ring for multistep estimates, and the two families of
// second error estimates used by double-checking: Lagrange interpolating
// polynomials (LIP) and variable-step backward differentiation formulas
// (BDF).
//
// The package deliberately exposes the raw mechanics (trial steps, stage
// hooks, validators) so the fault-injection harness can corrupt stage
// evaluations and the detectors in internal/core can veto acceptances. The
// protected-step decision itself — classic test, validator double-check,
// Algorithm 1 order policy — lives in internal/control; this package
// re-exports the shared vocabulary (see aliases.go) and contributes the
// explicit-RK Stepper and the integrators built on the control pipeline.
// Integrator is the one protected-step loop of the tree: the implicit
// methods (internal/implicit) and the distributed ranks (internal/dist)
// run on it through its Method seam.
package ode
