package ode_test

import (
	"fmt"
	"math"

	"repro/internal/control"
	"repro/internal/la"
	"repro/internal/ode"
)

// Example integrates the harmonic oscillator with the Dormand-Prince 5(4)
// pair under the paper's default controller settings.
func Example() {
	osc := control.Func{N: 2, F: func(t float64, x, dst la.Vec) {
		dst[0] = x[1]
		dst[1] = -x[0]
	}}
	in := &ode.Integrator{Tab: ode.DormandPrince(), Ctrl: control.DefaultController(1e-10, 1e-10)}
	in.Init(osc, 0, math.Pi, la.Vec{1, 0}, 0.01)
	if _, err := in.Run(); err != nil {
		fmt.Println("failed:", err)
		return
	}
	fmt.Printf("x(pi) = %.6f (exact -1)\n", in.X()[0])
	// Output: x(pi) = -1.000000 (exact -1)
}

// ExampleIntegrator_DenseRun samples the solution at arbitrary times with
// cubic Hermite dense output.
func ExampleIntegrator_DenseRun() {
	decay := control.Func{N: 1, F: func(t float64, x, dst la.Vec) { dst[0] = -x[0] }}
	in := &ode.Integrator{Tab: ode.BogackiShampine(), Ctrl: control.DefaultController(1e-9, 1e-9)}
	in.Init(decay, 0, 2, la.Vec{1}, 0.01)
	err := in.DenseRun([]float64{0.5, 1.5}, func(t float64, x la.Vec) {
		fmt.Printf("x(%.1f) = %.5f\n", t, x[0])
	})
	if err != nil {
		fmt.Println("failed:", err)
	}
	// Output:
	// x(0.5) = 0.60653
	// x(1.5) = 0.22313
}

// ExampleTableau_ControlOrder shows the step-control exponent of each
// embedded pair (one plus the lower order of the pair).
func ExampleTableau_ControlOrder() {
	for _, tab := range ode.Tableaus() {
		fmt.Printf("%s: N_k=%d control order %d\n", tab.Name, tab.Stages(), tab.ControlOrder())
	}
	// Output:
	// heun-euler: N_k=2 control order 2
	// bogacki-shampine: N_k=4 control order 3
	// dormand-prince: N_k=7 control order 5
}
