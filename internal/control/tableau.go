package control

import (
	"fmt"

	"repro/internal/la"
)

// Tableau is an explicit embedded Runge-Kutta pair in Butcher form. The
// propagated solution uses weights B (order Order); the embedded comparison
// solution uses BHat (order EmbeddedOrder); their difference is the local
// truncation error estimate driving the adaptive controller (§III-B). The
// named pairs (Heun-Euler, Bogacki-Shampine, ...) are constructed by
// internal/ode.
type Tableau struct {
	Name          string
	A             [][]float64 // strictly lower-triangular stage coefficients; A[i] has i entries
	B             []float64   // propagated-solution weights
	BHat          []float64   // embedded-solution weights
	C             []float64   // stage abscissae
	Order         int         // order p of the propagated solution
	EmbeddedOrder int         // order of the embedded solution
	FSAL          bool        // last stage is f(t+h, x_{n+1}) and is stage 0 of the next step
}

// Stages returns the number of stages N_k (the paper's count of function
// evaluations per step).
func (t *Tableau) Stages() int { return len(t.B) }

// HasErrorEstimate reports whether the embedded weights differ from the
// propagated ones; pairs without an estimate (SSPRK3) only suit a
// fixed-step integration (ode.Integrator.FixedStep).
func (t *Tableau) HasErrorEstimate() bool {
	for i := range t.B {
		if !la.ExactEq(t.B[i], t.BHat[i]) {
			return true
		}
	}
	return false
}

// ControlOrder returns p̂+1, the exponent denominator of the step-size law
// (Eq. 5): one plus the lower of the two orders, i.e. the order of the
// estimated LTE.
func (t *Tableau) ControlOrder() int {
	p := t.Order
	if t.EmbeddedOrder < p {
		p = t.EmbeddedOrder
	}
	return p + 1
}

// Validate checks structural invariants: matching lengths, strictly
// lower-triangular A, row sums equal to C, and weight sums equal to 1.
func (t *Tableau) Validate() error {
	s := t.Stages()
	if len(t.BHat) != s || len(t.C) != s || len(t.A) != s {
		return fmt.Errorf("control: tableau %s: inconsistent stage counts", t.Name)
	}
	for i, row := range t.A {
		if len(row) != i {
			return fmt.Errorf("control: tableau %s: A row %d has %d entries, want %d", t.Name, i, len(row), i)
		}
		var sum float64
		for _, a := range row {
			sum += a
		}
		if d := sum - t.C[i]; d > 1e-12 || d < -1e-12 {
			return fmt.Errorf("control: tableau %s: row %d sums to %g, want c=%g", t.Name, i, sum, t.C[i])
		}
	}
	for _, w := range [][]float64{t.B, t.BHat} {
		var sum float64
		for _, b := range w {
			sum += b
		}
		if d := sum - 1; d > 1e-12 || d < -1e-12 {
			return fmt.Errorf("control: tableau %s: weights sum to %g, want 1", t.Name, sum)
		}
	}
	return nil
}
