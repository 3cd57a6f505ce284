package implicit

import (
	"testing"

	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/ode"
	"repro/internal/telemetry"
)

// loopMethods names the explicit pairs and the implicit methods that share
// ode.Integrator's protected-step loop; each entry configures in for one.
var loopMethods = []struct {
	name string
	set  func(in *ode.Integrator)
}{
	{"heun-euler", func(in *ode.Integrator) { in.Tab = ode.HeunEuler() }},
	{"bogacki-shampine", func(in *ode.Integrator) { in.Tab = ode.BogackiShampine() }},
	{"sdirk2", func(in *ode.Integrator) { in.Method = &SDIRK2{} }},
	{"bdf2", func(in *ode.Integrator) { in.Method = &BDF2{} }},
}

// Stats.Evals must count every right-hand-side evaluation the run makes,
// including the double-check's evaluation of f(t+h, XProp) on a trial the
// validator then rejects. The BDF2 loop this package used to carry added
// that evaluation only on acceptance: with IBDC on this problem it reported
// 521 evaluations for 533 made, one short per validator rejection.
func TestStatsEvalsMatchCountingSystem(t *testing.T) {
	for _, m := range loopMethods {
		for _, guard := range []string{"none", "ibdc"} {
			t.Run(m.name+"/"+guard, func(t *testing.T) {
				in := &ode.Integrator{Ctrl: ode.DefaultController(1e-6, 1e-6)}
				m.set(in)
				if guard == "ibdc" {
					in.Validator = core.NewIBDC()
				}
				cs := &ode.CountingSystem{Sys: stiffRelax(10)}
				in.Init(cs, 0, 2, la.Vec{1}, 1e-3)
				if _, err := in.Run(); err != nil {
					t.Fatal(err)
				}
				if in.Stats.Evals != cs.Evals {
					t.Fatalf("Stats.Evals = %d, the system counted %d (%d validator rejections)",
						in.Stats.Evals, cs.Evals, in.Stats.RejectedValidator)
				}
			})
		}
	}
}

// On the shared loop the implicit methods get the integrator's observers:
// the stage and state hooks, OnTrial, the Tracer and Halt. BDF2's
// double-check evaluates f(t+h, XProp) through the hook with no tableau to
// name its pseudo-stage, which used to dereference a nil Tab.
func TestImplicitMethodsUnderObservers(t *testing.T) {
	for _, m := range loopMethods[2:] { // sdirk2 and bdf2
		t.Run(m.name, func(t *testing.T) {
			hooked, stateReads, trials, halts := 0, 0, 0, 0
			rec := telemetry.NewRecorder(1 << 16)
			in := &ode.Integrator{
				Ctrl:      ode.DefaultController(1e-6, 1e-6),
				Validator: core.NewIBDC(),
				Hook:      func(int, float64, la.Vec) int { hooked++; return 0 },
				StateHook: func(float64, la.Vec) int { stateReads++; return 0 },
				OnTrial:   func(*ode.Trial) { trials++ },
				Tracer:    rec,
				Halt:      func() bool { halts++; return false },
			}
			m.set(in)
			in.Init(stiffRelax(100), 0, 2, la.Vec{1}, 1e-3)
			if _, err := in.Run(); err != nil {
				t.Fatal(err)
			}
			st := in.Stats
			decided := st.TrialSteps - st.Aborted
			if hooked == 0 || stateReads != st.TrialSteps || halts != st.Steps {
				t.Errorf("hook calls %d, state reads %d (want %d), halt polls %d (want %d)",
					hooked, stateReads, st.TrialSteps, halts, st.Steps)
			}
			if trials != decided || rec.Len() != decided || rec.Dropped() != 0 {
				t.Fatalf("OnTrial saw %d trials, recorder holds %d (dropped %d), want %d decided trials",
					trials, rec.Len(), rec.Dropped(), decided)
			}
			var count [4]int
			rec.Do(func(ev *telemetry.StepEvent) { count[ev.Verdict]++ })
			if count[telemetry.VerdictAccept]+count[telemetry.VerdictFPRescue] != st.Steps ||
				count[telemetry.VerdictFPRescue] != st.FPRescues ||
				count[telemetry.VerdictClassicReject] != st.RejectedClassic ||
				count[telemetry.VerdictValidatorReject] != st.RejectedValidator {
				t.Fatalf("verdicts %v disagree with Stats %+v", count, st)
			}
			if st.RejectedValidator == 0 {
				t.Fatal("IBDC never rejected: the double-check path is not exercised")
			}
		})
	}
}
