package core

import (
	"fmt"
	"testing"

	"repro/internal/control"
	"repro/internal/la"
	"repro/internal/ode"
)

// The hot-path guarantee behind the benchmark gate: once warm, a protected
// step — stepper trial, controller decision, and the double-checking second
// estimate — performs zero heap allocations, for every embedded pair, both
// strategies, and every order the paper's Algorithm 1 can select.
func TestSteadyStateStepAllocationFree(t *testing.T) {
	tabs := []*control.Tableau{ode.HeunEuler(), ode.BogackiShampine(), ode.DormandPrince()}
	dets := map[string]func() *DoubleCheck{"lip": NewLBDC, "bdf": NewIBDC}
	for _, tab := range tabs {
		for dname, mk := range dets {
			for q := 1; q <= 3; q++ {
				t.Run(fmt.Sprintf("%s/%s/q=%d", tab.Name, dname, q), func(t *testing.T) {
					d := mk()
					d.NoAdapt = true
					d.SetOrder(q)
					in := &ode.Integrator{Tab: tab, Ctrl: control.DefaultController(1e-6, 1e-6), Validator: d}
					in.Init(oscillator, 0, 1e9, la.Vec{1, 0}, 0.001)
					for i := 0; i < 200; i++ { // warm: grow every workspace once
						if err := in.Step(); err != nil {
							t.Fatal(err)
						}
					}
					if n := testing.AllocsPerRun(500, func() {
						if err := in.Step(); err != nil {
							t.Fatal(err)
						}
					}); n != 0 {
						t.Fatalf("steady-state step allocates %v times, want 0", n)
					}
				})
			}
		}
	}
}

// The unprotected (classic-controller) step must be allocation-free too.
func TestSteadyStateClassicStepAllocationFree(t *testing.T) {
	in := &ode.Integrator{Tab: ode.DormandPrince(), Ctrl: control.DefaultController(1e-6, 1e-6)}
	in.Init(oscillator, 0, 1e9, la.Vec{1, 0}, 0.001)
	for i := 0; i < 200; i++ {
		if err := in.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(500, func() {
		if err := in.Step(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("steady-state classic step allocates %v times, want 0", n)
	}
}
