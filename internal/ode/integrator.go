package ode

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/control"
	"repro/internal/la"
	"repro/internal/telemetry"
)

// Trial reports one trial step to the OnTrial observer. Vector fields are
// views valid only during the callback.
type Trial struct {
	StepIndex int
	Attempt   int     // 1-based attempt count for this step index
	T, H      float64 // step start and size
	XStart    la.Vec
	XProp     la.Vec
	Weights   la.Vec
	SErr1     float64
	// Injections counts corruptions applied to stage evaluations that feed
	// the proposed solution during this trial. InheritedCorruption reports
	// that the reused first stage was corrupted in an earlier trial.
	// EstimateInjections counts corruptions applied to the double-check's
	// extra evaluation (they affect only the second estimate, never XProp).
	Injections          int
	InheritedCorruption bool
	EstimateInjections  int
	// StateInjections counts corruptions applied to this trial's transient
	// read of the starting state (XStart stays the clean stored solution).
	StateInjections int
	ClassicReject   bool
	ValidatorReject bool
	FPRescue        bool
	Accepted        bool

	// SErr2 is the validator's second scaled estimate, -1 when no
	// double-check ran (no validator, skipped for lack of history, or a
	// classic rejection that never reached the validator).
	SErr2 float64
	// DetOrder and DetWindow mirror the validator's order-adaptation state
	// (Algorithm 1's q and c) at this check; -1 when not applicable.
	DetOrder  int
	DetWindow int
	// Significance is the ground-truth label of the trial. The integrator
	// initializes it to telemetry.SigUnknown; a fault-injection harness's
	// OnTrial observer may set it (telemetry.SigBenign/SigSignificant)
	// before the event is handed to the Tracer, which runs after OnTrial.
	Significance int8
}

// event flattens the trial into its telemetry record.
func (tr *Trial) event() telemetry.StepEvent {
	v := telemetry.VerdictAccept
	switch {
	case tr.ClassicReject:
		v = telemetry.VerdictClassicReject
	case tr.FPRescue:
		v = telemetry.VerdictFPRescue
	case tr.ValidatorReject:
		v = telemetry.VerdictValidatorReject
	}
	return telemetry.StepEvent{
		Step:    tr.StepIndex,
		Attempt: tr.Attempt,
		T:       tr.T,
		H:       tr.H,
		SErr1:   tr.SErr1,
		SErr2:   tr.SErr2,
		Q:       tr.DetOrder,
		C:       tr.DetWindow,

		Verdict:  v,
		Accepted: tr.Accepted,

		Injections:          tr.Injections,
		StateInjections:     tr.StateInjections,
		EstimateInjections:  tr.EstimateInjections,
		InheritedCorruption: tr.InheritedCorruption,
		Significant:         tr.Significance,
	}
}

// Stats accumulates integration counters.
type Stats struct {
	Steps             int   // accepted steps
	TrialSteps        int   // all trials, accepted or not
	RejectedClassic   int   // rejections by the classic error test
	RejectedValidator int   // rejections by the double-checking validator
	FPRescues         int   // validator rejections later self-identified as false positives
	Aborted           int   // trials the method abandoned without a proposal (failed implicit stage solves)
	Evals             int64 // fresh right-hand-side evaluations
	Injections        int64 // corruptions applied to stage evaluations
}

// historyDepth is the depth of the accepted-solution ring of every
// integrator in this package.
const historyDepth = 8

// Method computes the trial steps the Integrator decides on: the explicit
// RK Stepper, or an implicit method from internal/implicit.
type Method interface {
	// Start binds the method to one integration before its first trial:
	// the system, and the integrator's controller and accepted-solution
	// history, which stay live (and owned by the integrator) for the run.
	Start(sys control.System, ctrl *control.Controller, hist *control.History)
	// Trial computes one trial step from (t, x) with step size h. k1, when
	// non-nil, is f(t, x) carried over from the previous step (a method may
	// ignore it); hook, when non-nil, may corrupt every stage evaluation the
	// method exposes. The result sets the step law's ControlOrder, and
	// Aborted when the trial produced no proposal. It is the method's own
	// record, valid until its next Trial.
	Trial(t, h float64, x, k1 la.Vec, hook control.StageHook) *control.TrialResult
}

// Integrator is the protected-step loop of every solver in the tree: it
// advances an initial-value problem with trial steps from an embedded RK
// pair (Tab) or another Method, under the classic adaptive controller,
// optionally guarded by a Validator. Configure the exported fields, then
// call Init and Run (or Step).
type Integrator struct {
	Tab *control.Tableau
	// Method, when non-nil, computes the trials instead of an explicit
	// stepper for Tab (which must then be nil): the implicit SDIRK2(1) and
	// BDF2 methods. An aborted trial is retried at half the step size.
	Method    Method
	Ctrl      control.Controller
	Validator control.Validator
	Hook      control.StageHook // injection/observer hook for stage evaluations
	OnTrial   func(*Trial)      // harness observer, called for every trial
	// Tracer, when non-nil, receives one telemetry.StepEvent per trial,
	// after OnTrial has run (so observers can attach ground truth to the
	// Trial first). Recording is purely observational — it consumes no
	// randomness and no evaluations — and a nil Tracer costs nothing.
	Tracer telemetry.Tracer
	// StateHook may corrupt a transient copy of the solution vector as read
	// by one trial — the paper's §V-D scenario of an SDC shifting x_{n-1}.
	// The stored solution (and the history) stay clean, so a rejected trial
	// recomputes from clean data. Returns the number of corruptions.
	StateHook func(t float64, x la.Vec) int

	// Halt, when non-nil, is polled between accepted steps by Run/RunTo;
	// returning true stops the integration with ErrHalted. The campaign
	// engines wire context cancellation through it, so a cancelled campaign
	// abandons an in-flight replicate mid-run instead of integrating to
	// TEnd. A nil Halt costs one pointer comparison per accepted step, and
	// Step itself never polls it, so the protected-step hot path (and its
	// benchmark gate) is unaffected.
	Halt func() bool

	MaxSteps  int     // safety bound on accepted steps (0 = 1<<20)
	MaxTrials int     // safety bound on trials per step (0 = 1000)
	MinStep   float64 // below this the integration fails (0 = 1e-14 * span)
	MaxStep   float64 // upper clamp on the step size (0 = none)
	// NoReuseFirstStage disables carrying f(t_n, x_n) (from FSAL stages or
	// the double-check's FProp) into the next step's first stage. Ablation
	// switch for the first-same-as-last reuse of §V-B.
	NoReuseFirstStage bool
	// FixedStep runs the constant-step solver that the related-work
	// detectors AID and Hot Rode assume (§VII-C): h stays at the h0 given
	// to Init (MaxStep still clamps it, and the last step shortens to land
	// on tEnd), and the classic test, NaN screen included, is skipped. The
	// Validator alone decides; without one every trial is accepted as
	// computed.
	FixedStep bool

	sys     control.System
	stepper *Stepper // the explicit method for Tab, kept across Init calls
	method  Method   // the method in use: Method, or stepper
	hist    *control.History
	t       float64
	x       la.Vec
	h       float64
	tEnd    float64

	fNext          la.Vec // cached f(t, x) reusable as the next first stage
	haveFNext      bool
	fNextCorrupted bool
	xTrialBuf      la.Vec // transient state copy for StateHook corruption
	trial          Trial  // per-trial observer record, reused across trials
	// engine is the shared protected-step pipeline (classic test + validator
	// double-check); it owns the CheckContext scratch and FProp buffer.
	engine control.Engine

	weights la.Vec
	Stats   Stats
}

// ErrStepSizeUnderflow is returned when the controller drives the step size
// below MinStep, which in the SDC experiments signals a diverged (unstable)
// solution.
var ErrStepSizeUnderflow = errors.New("ode: step size underflow")

// ErrTooManyTrials is returned when a single step exceeds MaxTrials
// attempts, e.g. when a validator rejects indefinitely.
var ErrTooManyTrials = errors.New("ode: too many trials for one step")

// ErrHalted is returned by Run/RunTo when the Halt hook requested a stop.
// The integrator's state remains valid — the halt landed on a step
// boundary — but campaign accounting treats a halted run as abandoned, not
// diverged.
var ErrHalted = errors.New("ode: run halted")

// Init prepares the integrator to advance sys from x0 at t0 to tEnd with
// initial step h0. x0 is copied.
func (in *Integrator) Init(sys control.System, t0, tEnd float64, x0 la.Vec, h0 float64) {
	switch {
	case in.Method != nil && in.Tab != nil:
		panic("ode: Integrator.Tab and Method are exclusive")
	case in.Method == nil && in.Tab == nil:
		in.Tab = HeunEuler()
	}
	if in.Ctrl == (control.Controller{}) {
		in.Ctrl = control.DefaultController(1e-4, 1e-4)
	}
	if in.MaxSteps == 0 {
		in.MaxSteps = 1 << 20
	}
	if in.MaxTrials == 0 {
		in.MaxTrials = 1000
	}
	if in.MinStep == 0 {
		in.MinStep = 1e-14 * math.Max(1, math.Abs(tEnd-t0))
	}
	// Re-Init reuses every internal buffer whose shape still fits (same
	// tableau pointer, same dimension), so a campaign worker can recycle one
	// integrator across replicates without reallocating the stage storage,
	// history ring, and scratch vectors each run. Reuse changes no numbers:
	// every reused buffer is fully overwritten before it is read.
	m := sys.Dim()
	in.sys = sys
	in.method = in.Method
	if in.method == nil {
		if in.stepper == nil || in.stepper.Tab != in.Tab {
			in.stepper = NewStepper(in.Tab, sys)
		}
		in.method = in.stepper
	}
	if in.hist != nil && in.hist.Dim() == m {
		in.hist.Reset()
	} else {
		in.hist = control.NewHistory(historyDepth, m)
	}
	in.t, in.tEnd = t0, tEnd
	if len(in.x) == m {
		in.x.CopyFrom(x0)
	} else {
		in.x = x0.Clone()
	}
	in.h = h0
	if len(in.fNext) != m {
		in.fNext = la.NewVec(m)
		in.xTrialBuf = la.NewVec(m)
		in.weights = la.NewVec(m)
	}
	in.haveFNext = false
	in.fNextCorrupted = false
	in.trial = Trial{}
	in.engine.Reset(m)
	in.hist.Push(t0, in.x)
	in.Stats = Stats{}
	in.method.Start(sys, &in.Ctrl, in.hist)
}

// T returns the current time.
func (in *Integrator) T() float64 { return in.t }

// X returns a view of the current solution; copy to retain.
func (in *Integrator) X() la.Vec { return in.x }

// StepSize returns the step size the next trial will use.
func (in *Integrator) StepSize() float64 { return in.h }

// History returns the accepted-solution ring.
func (in *Integrator) History() *control.History { return in.hist }

// Done reports whether the integration reached tEnd.
func (in *Integrator) Done() bool { return in.t >= in.tEnd-1e-14*math.Abs(in.tEnd) }

// Step advances by one accepted step (possibly after several rejected or
// aborted trials). It returns ErrStepSizeUnderflow or ErrTooManyTrials on
// failure.
func (in *Integrator) Step() error {
	h := in.h
	if in.MaxStep > 0 && h > in.MaxStep {
		h = in.MaxStep
	}
	if in.t+h > in.tEnd {
		h = in.tEnd - in.t
	}
	in.engine.Validator = in.Validator
	in.engine.BeginStep()
	for attempt := 1; ; attempt++ {
		if attempt > in.MaxTrials {
			return ErrTooManyTrials
		}
		if h < in.MinStep {
			return ErrStepSizeUnderflow
		}
		var k1 la.Vec
		if in.haveFNext {
			k1 = in.fNext
		}
		xTrial := in.x
		stateInj := 0
		if in.StateHook != nil {
			in.xTrialBuf.CopyFrom(in.x)
			stateInj = in.StateHook(in.t, in.xTrialBuf)
			if stateInj > 0 {
				xTrial = in.xTrialBuf
			}
		}
		res := in.method.Trial(in.t, h, xTrial, k1, in.Hook)
		in.Stats.TrialSteps++
		in.Stats.Evals += int64(res.Evals)
		in.Stats.Injections += int64(res.Injections)
		if res.Aborted {
			// No proposal to decide on (a failed stage solve): retry at half
			// the step, as a fresh trial rather than a recomputation.
			in.Stats.Aborted++
			h /= 2
			in.engine.BeginStep()
			continue
		}

		// The shared protected-step pipeline: classic test, then the
		// validator double-check with the engine-owned CheckContext.
		chk := in.engine.Decide(&in.Ctrl, in.Stats.Steps, in.t, h,
			xTrial, in.x, res.XProp, res.ErrVec, in.weights,
			in.hist, in.Tab, in.sys, in.Hook, res.FProp, in.FixedStep)
		sErr1 := chk.SErr1
		in.Stats.Evals += int64(chk.FPropEvals)

		// The trial record lives on the integrator so taking its address
		// for OnTrial does not allocate per trial; it is refreshed field by
		// field, every field, so no composite value is built and copied.
		accepted := chk.Accepted()
		trial := &in.trial
		trial.StepIndex, trial.Attempt = in.Stats.Steps, attempt
		trial.T, trial.H = in.t, h
		trial.XStart, trial.XProp, trial.Weights = in.x, res.XProp, in.weights
		trial.SErr1 = sErr1
		trial.Injections = res.Injections
		trial.InheritedCorruption = in.haveFNext && in.fNextCorrupted
		trial.EstimateInjections = chk.EstimateInjections
		trial.StateInjections = stateInj
		trial.ClassicReject = chk.ClassicReject
		trial.ValidatorReject = chk.Verdict == control.VerdictReject
		trial.FPRescue = chk.Verdict == control.VerdictFPRescue
		trial.Accepted = accepted
		trial.SErr2, trial.DetOrder, trial.DetWindow = chk.SErr2, chk.DetOrder, chk.DetWindow
		trial.Significance = telemetry.SigUnknown
		if trial.FPRescue {
			in.Stats.FPRescues++
		}
		if in.OnTrial != nil {
			in.OnTrial(trial)
		}
		if in.Tracer != nil {
			in.Tracer.Record(trial.event())
		}

		if accepted {
			in.t += h
			in.x.CopyFrom(res.XProp)
			in.hist.Push(in.t, in.x)
			in.Stats.Steps++
			// Cache f(t, x) for reuse as the next first stage.
			lastInj := 0
			switch {
			case in.NoReuseFirstStage:
				in.haveFNext = false
			case res.FProp != nil:
				in.fNext.CopyFrom(res.FProp)
				in.haveFNext = true
				lastInj = res.LastStageInjections
			case chk.FProp != nil:
				in.fNext.CopyFrom(chk.FProp)
				in.haveFNext = true
				lastInj = chk.EstimateInjections
			default:
				in.haveFNext = false
			}
			in.fNextCorrupted = in.haveFNext && lastInj > 0
			if in.FixedStep {
				return nil
			}
			in.h = in.Ctrl.NewStepSize(h, sErr1, res.ControlOrder)
			if in.MaxStep > 0 && in.h > in.MaxStep {
				in.h = in.MaxStep
			}
			return nil
		}

		if trial.ClassicReject {
			in.Stats.RejectedClassic++
			h = in.Ctrl.RejectStepSize(h, sErr1, res.ControlOrder)
		} else {
			// Validator rejection: recompute with the same step size so a
			// clean recomputation reproduces the identical SErr_1. The
			// recomputation is complete — the cached first stage is dropped
			// in case it was itself corrupted (a clean cached stage is
			// reproduced bit-identically by the fresh evaluation, so the
			// false-positive self-detection is unaffected).
			in.Stats.RejectedValidator++
			in.haveFNext = false
		}
	}
}

// Run advances until tEnd (or failure). It returns the number of accepted
// steps taken during this call.
func (in *Integrator) Run() (int, error) {
	start := in.Stats.Steps
	for !in.Done() {
		if in.Halt != nil && in.Halt() {
			return in.Stats.Steps - start, ErrHalted
		}
		if in.Stats.Steps-start >= in.MaxSteps {
			return in.Stats.Steps - start, fmt.Errorf("ode: exceeded MaxSteps=%d at t=%g", in.MaxSteps, in.t)
		}
		if err := in.Step(); err != nil {
			return in.Stats.Steps - start, err
		}
	}
	return in.Stats.Steps - start, nil
}

// RunTo advances until time tStop, landing on it exactly (tStop must not
// exceed the tEnd given to Init). The integrator's state, history, and
// detector remain live across calls, so output sampling does not perturb
// the protected integration.
func (in *Integrator) RunTo(tStop float64) error {
	if tStop > in.tEnd {
		return fmt.Errorf("ode: RunTo(%g) beyond tEnd=%g", tStop, in.tEnd)
	}
	saved := in.tEnd
	in.tEnd = tStop
	defer func() { in.tEnd = saved }()
	for !in.Done() {
		if in.Halt != nil && in.Halt() {
			return ErrHalted
		}
		if err := in.Step(); err != nil {
			return err
		}
	}
	return nil
}
