package ode

import (
	"testing"

	"repro/internal/control"
	"repro/internal/la"
	"repro/internal/telemetry"
)

func BenchmarkTrialDormandPrince(b *testing.B) {
	st := NewStepper(DormandPrince(), oscillator)
	x := la.Vec{1, 0}
	for i := 0; i < b.N; i++ {
		_ = st.Trial(0, 0.01, x, nil, nil)
	}
}

func BenchmarkAdaptiveStepHeunEuler(b *testing.B) {
	// MinStep is set explicitly: the default heuristic scales with the
	// (deliberately huge) time span.
	in := &Integrator{Tab: HeunEuler(), Ctrl: control.DefaultController(1e-8, 1e-8), MinStep: 1e-12}
	in.Init(oscillator, 0, 1e15, la.Vec{1, 0}, 0.001)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := in.Step(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAdaptiveStepTraced measures the per-trial cost of the step
// tracer against BenchmarkAdaptiveStepHeunEuler's untraced baseline: one
// event struct copy into a saturated ring. Run both with -benchmem; the
// traced path must report 0 B/op like the baseline.
func BenchmarkAdaptiveStepTraced(b *testing.B) {
	in := &Integrator{
		Tab: HeunEuler(), Ctrl: control.DefaultController(1e-8, 1e-8), MinStep: 1e-12,
		Tracer: telemetry.NewRecorder(64),
	}
	in.Init(oscillator, 0, 1e15, la.Vec{1, 0}, 0.001)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := in.Step(); err != nil {
			b.Fatal(err)
		}
	}
}
