// Longhaul demonstrates the last line of defense: checkpoint/rollback
// recovery for SDCs that no step-level detector sees in time. A long Lorenz
// integration is peppered with state corruptions while the classic
// controller runs unguarded; whenever an undetected corruption drives the
// solver unstable, the recovery manager rolls back to a recent checkpoint
// and the run completes anyway.
package main

import (
	"fmt"

	"repro/internal/control"
	"repro/internal/la"
	"repro/internal/ode"
	"repro/internal/problems"
	"repro/internal/recovery"
	"repro/internal/xrand"
)

func main() {
	// The paper's unstable example: one bad state and the run blows up in
	// finite time.
	p := problems.Unstable()
	p.TEnd = 50

	// Upward-biased state corruption: every ~300 steps the stored solution
	// is scaled by 1 + N(0,1)^2, frequently shoving it across the
	// instability boundary at x = 1.
	rng := xrand.New(9)
	var injected int64
	stateHook := func(t float64, x la.Vec) int {
		if !rng.Bernoulli(0.003) {
			return 0
		}
		injected++
		n := rng.Norm()
		x[0] *= 1 + n*n
		return 1
	}

	in := &ode.Integrator{
		Tab:       ode.HeunEuler(),
		Ctrl:      control.DefaultController(p.TolA, p.TolR),
		StateHook: stateHook,
		// Cap the step size: near the equilibrium the controller would
		// otherwise take huge steps and the run would see almost no SDCs.
		MaxStep: 0.05,
	}
	mgr := recovery.NewManager(25, 2000)
	restarts, err := recovery.RunWithRecovery(in, p.Sys, p.T0, p.TEnd, p.X0, p.H0, mgr, 200)
	fmt.Printf("x' = (x-1)^2 for %g time units under upward-biased state SDCs (p=0.003/step)\n\n", p.TEnd)
	if err != nil {
		fmt.Printf("unrecoverable: %v after %d restarts\n", err, restarts)
		return
	}
	want := p.Exact(p.TEnd)[0]
	fmt.Printf("completed: x(T) = %.6f (exact %.6f)\n", in.X()[0], want)
	fmt.Printf("SDCs injected: %d;  rollback restarts used: %d\n", injected, restarts)
	fmt.Println("\nEvery divergence was caught by the step-size-underflow failure and")
	fmt.Println("repaired by rolling back to a checkpoint taken before the corruption.")
}
