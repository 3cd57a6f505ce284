package implicit_test

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/implicit"
	"repro/internal/la"
	"repro/internal/ode"
)

// Example shows the paper's future-work scenario end to end: a stiff
// problem integrated with the L-stable SDIRK2 solver while the
// integration-based double-checking validates every accepted step.
func Example() {
	// x' = -1000 (x - cos t) - sin t, exact x = cos t.
	stiff := ode.Func{N: 1, F: func(t float64, x, dst la.Vec) {
		dst[0] = -1000*(x[0]-math.Cos(t)) - math.Sin(t)
	}}
	in := &ode.Integrator{
		Method:    &implicit.SDIRK2{},
		Ctrl:      ode.DefaultController(1e-6, 1e-6),
		Validator: core.NewIBDC(),
	}
	in.Init(stiff, 0, 1, la.Vec{1}, 1e-3)
	if _, err := in.Run(); err != nil {
		fmt.Println("failed:", err)
		return
	}
	fmt.Printf("x(1) = %.4f (exact %.4f)\n", in.X()[0], math.Cos(1))
	// Output: x(1) = 0.5403 (exact 0.5403)
}
