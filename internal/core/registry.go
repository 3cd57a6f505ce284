package core

import (
	"math"

	"repro/internal/control"
	"repro/internal/ode"
)

// The package's detectors register themselves with the control registry, so
// the harness and the command-line drivers build any of them from its name
// alone. Each factory also supplies the detector's campaign accounting: the
// persistent memory cost in solution-sized vectors and the mean
// double-checking order (§VI-B).

// newDoubleCheck applies the Spec's ablation switches to a fresh detector.
func newDoubleCheck(d *DoubleCheck, s control.Spec) *DoubleCheck {
	d.NoAdapt = s.NoAdapt
	if s.FixedOrder > 0 {
		d.SetOrder(s.FixedOrder - 1)
	}
	return d
}

func init() {
	control.Register("lbdc", func(s control.Spec) (control.Detector, error) {
		d := newDoubleCheck(NewLBDC(), s)
		return control.Detector{
			Validator: d,
			// Order-q LIP keeps q solutions beyond x_{n-1} plus the scratch.
			MemVectors: func() float64 { return d.Stats.MeanOrder() + 1 },
			MeanOrder:  func() float64 { return d.Stats.MeanOrder() },
		}, nil
	})
	control.Register("ibdc", func(s control.Spec) (control.Detector, error) {
		d := newDoubleCheck(NewIBDC(), s)
		return control.Detector{
			Validator: d,
			// Order-q BDF keeps q-1 solutions beyond x_{n-1} plus scratch.
			MemVectors: func() float64 { return math.Max(0, d.Stats.MeanOrder()-1) + 1 },
			MeanOrder:  func() float64 { return d.Stats.MeanOrder() },
		}, nil
	})
	control.Register("replication", func(s control.Spec) (control.Detector, error) {
		d := &Replication{Sys: s.Sys}
		if s.Tab != nil {
			d.stepper = ode.NewStepper(s.Tab, s.Sys)
		}
		return control.Detector{
			Validator:  d,
			MemVectors: stagePlusTwo(s.Tab, 1),
		}, nil
	})
	control.Register("tmr", func(s control.Spec) (control.Detector, error) {
		d := &TMR{Sys: s.Sys}
		if s.Tab != nil {
			d.stepper = ode.NewStepper(s.Tab, s.Sys)
		}
		return control.Detector{
			Validator:  d,
			MemVectors: stagePlusTwo(s.Tab, 2),
		}, nil
	})
	control.Register("richardson", func(s control.Spec) (control.Detector, error) {
		d := &Richardson{Sys: s.Sys}
		if s.Tab != nil {
			d.stepper = ode.NewStepper(s.Tab, s.Sys)
		}
		return control.Detector{
			Validator:  d,
			MemVectors: func() float64 { return 2 }, // midpoint + replica proposal
		}, nil
	})
	control.RegisterFixed("aid", func() control.FixedValidator { return NewAID() })
	control.RegisterFixed("hotrode", func() control.FixedValidator { return NewHotRode() })
}

// stagePlusTwo reports the memory cost of n full replicas of the solver
// state, N_k+2 vectors each (0 when the pair is unknown at build time).
func stagePlusTwo(tab *ode.Tableau, n int) func() float64 {
	return func() float64 {
		if tab == nil {
			return 0
		}
		return float64(n * (tab.Stages() + 2))
	}
}
