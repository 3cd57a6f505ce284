package ode

import (
	"errors"

	"repro/internal/la"
)

// fixedMaxTrials bounds the recomputations of one fixed step.
const fixedMaxTrials = 1000

// FixedIntegrator advances a system with a constant step size; there is no
// error control, only the optional validator's accept/recompute loop.
type FixedIntegrator struct {
	Tab       *Tableau
	Validator FixedValidator
	Hook      StageHook
	OnTrial   func(*Trial)

	sys     System
	stepper *Stepper
	hist    *History
	t       float64
	x       la.Vec
	h       float64
	Stats   Stats
}

// Init prepares the integrator at (t0, x0) with constant step h.
func (in *FixedIntegrator) Init(sys System, t0 float64, x0 la.Vec, h float64) {
	if in.Tab == nil {
		in.Tab = HeunEuler()
	}
	in.sys = sys
	in.stepper = NewStepper(in.Tab, sys)
	in.hist = NewHistory(historyDepth, sys.Dim())
	in.t = t0
	in.x = x0.Clone()
	in.h = h
	in.hist.Push(t0, 0, in.x)
	in.Stats = Stats{}
}

// T returns the current time.
func (in *FixedIntegrator) T() float64 { return in.t }

// X returns a view of the current solution.
func (in *FixedIntegrator) X() la.Vec { return in.x }

// History returns the accepted-solution ring.
func (in *FixedIntegrator) History() *History { return in.hist }

// ErrFixedTooManyTrials is returned when a step cannot be validated within
// fixedMaxTrials recomputations.
var ErrFixedTooManyTrials = errors.New("ode: fixed-step validator never accepted")

// Step advances by exactly one step of size h, recomputing as long as the
// validator rejects.
func (in *FixedIntegrator) Step() error {
	recomp := false
	for attempt := 1; ; attempt++ {
		if attempt > fixedMaxTrials {
			return ErrFixedTooManyTrials
		}
		res := in.stepper.Trial(in.t, in.h, in.x, nil, in.Hook)
		in.Stats.TrialSteps++
		in.Stats.Evals += int64(res.Evals)
		in.Stats.Injections += int64(res.Injections)

		accepted := true
		if in.Validator != nil {
			ctx := &FixedCheckContext{
				StepIndex: in.Stats.Steps,
				T:         in.t, H: in.h,
				XStart: in.x, XProp: res.XProp, ErrVec: res.ErrVec,
				Hist:          in.hist,
				Recomputation: recomp,
			}
			accepted = in.Validator.ValidateFixed(ctx)
		}
		if in.OnTrial != nil {
			in.OnTrial(&Trial{
				StepIndex: in.Stats.Steps, Attempt: attempt,
				T: in.t, H: in.h,
				XStart: in.x, XProp: res.XProp,
				Injections:      res.Injections,
				ValidatorReject: !accepted,
				Accepted:        accepted,
			})
		}
		if accepted {
			in.t += in.h
			in.x.CopyFrom(res.XProp)
			in.hist.Push(in.t, in.h, in.x)
			in.Stats.Steps++
			return nil
		}
		in.Stats.RejectedValidator++
		recomp = true
	}
}

// RunN advances n steps, stopping early on error.
func (in *FixedIntegrator) RunN(n int) error {
	for i := 0; i < n; i++ {
		if err := in.Step(); err != nil {
			return err
		}
	}
	return nil
}
