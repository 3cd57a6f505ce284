// Stiffdetect demonstrates why the paper's second strategy (IBDC) builds
// its extra estimate from a backward differentiation formula: BDF's larger
// stability region keeps the second estimate meaningful on stiff dynamics,
// where polynomial extrapolation (LBDC) misfires and pays for itself in
// false-positive recomputations.
//
// The workload is the Van der Pol oscillator with mu = 50: its fast
// relaxation phases are stiff for the explicit pairs.
package main

import (
	"fmt"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/ode"
	"repro/internal/problems"
)

func run(det *core.DoubleCheck, label string) {
	p := problems.VanDerPol(50)
	in := &ode.Integrator{
		Tab:       ode.BogackiShampine(),
		Ctrl:      control.DefaultController(p.TolA, p.TolR),
		Validator: det,
	}
	in.Init(p.Sys, p.T0, p.TEnd, p.X0, p.H0)
	if _, err := in.Run(); err != nil {
		fmt.Printf("%s: failed: %v\n", label, err)
		return
	}
	extraTrials := in.Stats.TrialSteps - in.Stats.Steps - in.Stats.RejectedClassic
	fmt.Printf("%s: steps=%-6d false-positive recomputations=%-5d mean order=%.2f  x(T)=[%+.4f %+.4f]\n",
		label, in.Stats.Steps, extraTrials, det.Stats.MeanOrder(), in.X()[0], in.X()[1])
}

func main() {
	fmt.Println("Van der Pol, mu = 50 (stiff), Bogacki-Shampine 3(2), clean run (no SDCs).")
	fmt.Println("A detector's false positives each cost one full recomputed step:")
	fmt.Println()
	run(core.NewLBDC(), "LBDC (Lagrange extrapolation)")
	run(core.NewIBDC(), "IBDC (variable-step BDF)    ")
	fmt.Println()
	fmt.Println("Both estimates misfire heavily on the stiff arcs — the difficulty §V-C")
	fmt.Println("describes — but the BDF estimate's larger stability region needs")
	fmt.Println("measurably fewer rescues than polynomial extrapolation. The paper leaves")
	fmt.Println("proper support for implicit (stiff) solvers to future work.")
}
