package core

import (
	"fmt"
	"testing"

	"repro/internal/control"
	"repro/internal/la"
	"repro/internal/ode"
)

// benchIntegrator returns a warm protected integrator: the first 200 steps
// grow every workspace, so the timed loop measures the steady state. Run
// with -benchmem: every sub-benchmark must report 0 B/op.
func benchIntegrator(b *testing.B, tab *control.Tableau, d *DoubleCheck) *ode.Integrator {
	var v control.Validator
	if d != nil {
		v = d
	}
	in := &ode.Integrator{Tab: tab, Ctrl: control.DefaultController(1e-6, 1e-6), Validator: v, MinStep: 1e-12}
	in.Init(oscillator, 0, 1e15, la.Vec{1, 0}, 0.001)
	for i := 0; i < 200; i++ {
		if err := in.Step(); err != nil {
			b.Fatal(err)
		}
	}
	return in
}

// BenchmarkProtectedStep measures the steady-state per-step cost of the
// paper's detector matrix: each embedded pair with the classic controller
// alone and with LBDC/IBDC pinned at q = 1..3 (cmd/sdcperf runs the same
// matrix for the regression gate).
func BenchmarkProtectedStep(b *testing.B) {
	for _, tab := range []*control.Tableau{ode.HeunEuler(), ode.BogackiShampine(), ode.DormandPrince()} {
		b.Run(tab.Name+"/classic", func(b *testing.B) {
			in := benchIntegrator(b, tab, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := in.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
		for dname, mk := range map[string]func() *DoubleCheck{"lip": NewLBDC, "bdf": NewIBDC} {
			for q := 1; q <= 3; q++ {
				b.Run(fmt.Sprintf("%s/%s/q=%d", tab.Name, dname, q), func(b *testing.B) {
					d := mk()
					d.NoAdapt = true
					d.SetOrder(q)
					in := benchIntegrator(b, tab, d)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if err := in.Step(); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
