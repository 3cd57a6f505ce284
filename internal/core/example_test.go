package core_test

import (
	"fmt"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/ode"
)

// Example shows the one-line integration of the paper's detector into an
// adaptive solve: set the Validator field and run.
func Example() {
	decay := control.Func{N: 1, F: func(t float64, x, dst la.Vec) { dst[0] = -x[0] }}
	in := &ode.Integrator{
		Tab:       ode.BogackiShampine(),
		Ctrl:      control.DefaultController(1e-8, 1e-8),
		Validator: core.NewIBDC(),
	}
	in.Init(decay, 0, 1, la.Vec{1}, 0.01)
	if _, err := in.Run(); err != nil {
		fmt.Println("failed:", err)
		return
	}
	fmt.Printf("x(1) = %.6f\n", in.X()[0])
	// Output: x(1) = 0.367879
}

// ExampleDoubleCheck_Order shows Algorithm 1's starting order and manual
// override for ablation studies.
func ExampleDoubleCheck_Order() {
	d := core.NewLBDC()
	fmt.Println("initial order:", d.Order())
	d.SetOrder(3)
	fmt.Println("pinned order:", d.Order())
	// Output:
	// initial order: 1
	// pinned order: 3
}
