// Bubble2d runs the paper's use case end to end: the 2-D rising thermal
// bubble (nonhydrostatic atmosphere, WENO5 + adaptive Runge-Kutta) guarded
// by integration-based double-checking while SDCs strike the stage
// evaluations. It prints an ASCII rendering of the density perturbation as
// the bubble rises and reports the detection statistics.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/euler"
	"repro/internal/grid"
	"repro/internal/inject"
	"repro/internal/la"
	"repro/internal/ode"
	"repro/internal/pde"
	"repro/internal/viz"
	"repro/internal/weno"
	"repro/internal/xrand"
)

func render(sys *pde.EulerSystem, x la.Vec) {
	g := sys.Grid
	rho := sys.VarSlice(x, 0)
	f := viz.NewField(g.N[0], g.N[1], rho)
	lo, _ := f.Range()
	// Buoyant (most negative rho') maps to the darkest shade.
	f.ASCII(os.Stdout, 0, lo)
}

func main() {
	n := flag.Int("n", 32, "grid resolution (n x n)")
	tEnd := flag.Float64("t", 150, "simulated seconds")
	seed := flag.Uint64("seed", 1, "injection seed")
	flag.Parse()

	g := grid.New2D(*n, *n, 1000, 1000)
	sys := pde.NewEulerSystem(g, euler.DefaultGas(), weno.Weno5{})
	x0 := sys.InitialState(euler.DefaultBubble())
	dt := sys.MaxDt(x0, 0.5)

	plan := inject.NewPlan(xrand.New(*seed), inject.Scaled{})
	plan.Prob = 0.005
	det := core.NewIBDC()

	in := &ode.Integrator{
		Tab:       ode.BogackiShampine(),
		Ctrl:      control.DefaultController(1e-4, 1e-4),
		Validator: det,
		Hook:      plan.Hook,
		MaxStep:   dt,
	}
	in.Init(sys, 0, *tEnd, x0, dt/4)

	fmt.Printf("Rising thermal bubble, %dx%d grid, WENO5 + Bogacki-Shampine + IBDC\n", *n, *n)
	fmt.Printf("SDC injection: scaled, p = %.3f per stage evaluation\n\n", plan.Prob)
	fmt.Println("t = 0 s:")
	render(sys, in.X())

	for !in.Done() {
		if err := in.Step(); err != nil {
			fmt.Printf("integration failed at t = %.2f: %v\n", in.T(), err)
			return
		}
	}
	fmt.Printf("\nt = %.0f s:\n", in.T())
	render(sys, in.X())

	fmt.Printf("\nsteps=%d  SDCs injected=%d  classic rejections=%d  double-check rejections=%d  FP rescues=%d\n",
		in.Stats.Steps, in.Stats.Injections, in.Stats.RejectedClassic, in.Stats.RejectedValidator, in.Stats.FPRescues)
	fmt.Printf("double-check order in force: %d (adapted by Algorithm 1)\n", det.Order())
}
