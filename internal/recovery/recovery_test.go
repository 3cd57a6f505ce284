package recovery

import (
	"math"
	"testing"

	"repro/internal/control"
	"repro/internal/la"
	"repro/internal/ode"
	"repro/internal/problems"
)

func TestManagerCadence(t *testing.T) {
	m := NewManager(5, 2)
	x := la.Vec{1}
	for step := 0; step <= 20; step++ {
		m.Observe(step, float64(step), 0.1, x)
	}
	if m.Len() != 2 {
		t.Fatalf("retained %d snapshots, want 2", m.Len())
	}
	snap, ok := m.Latest()
	if !ok || snap.Step != 20 {
		t.Fatalf("latest = %+v", snap)
	}
}

func TestManagerCopiesState(t *testing.T) {
	m := NewManager(1, 1)
	x := la.Vec{42}
	m.Observe(0, 1.5, 0.25, x)
	x[0] = -1
	snap, _ := m.Latest()
	if snap.X[0] != 42 {
		t.Fatal("snapshot aliased live state")
	}
	if snap.T != 1.5 || snap.H != 0.25 {
		t.Fatalf("snapshot (t, h) = (%g, %g), want (1.5, 0.25)", snap.T, snap.H)
	}
}

func TestManagerDrop(t *testing.T) {
	m := NewManager(1, 3)
	for step := 0; step < 3; step++ {
		m.Observe(step, float64(step), 0.1, la.Vec{float64(step)})
	}
	m.Drop()
	snap, ok := m.Latest()
	if !ok || snap.Step != 1 {
		t.Fatalf("after drop latest = %+v ok=%v", snap, ok)
	}
	m.Drop()
	m.Drop()
	if _, ok := m.Latest(); ok {
		t.Fatal("expected empty manager")
	}
}

func TestRunWithRecoveryCleanRun(t *testing.T) {
	p := problems.Decay()
	in := &ode.Integrator{Tab: ode.HeunEuler(), Ctrl: control.DefaultController(1e-6, 1e-6)}
	restarts, err := RunWithRecovery(in, p.Sys, p.T0, p.TEnd, p.X0, p.H0, NewManager(10, 2), 3)
	if err != nil || restarts != 0 {
		t.Fatalf("clean run: restarts=%d err=%v", restarts, err)
	}
	if e := math.Abs(in.X()[0] - math.Exp(-p.TEnd)); e > 1e-4 {
		t.Fatalf("final error %g", e)
	}
}

func TestRunWithRecoveryAfterDivergence(t *testing.T) {
	// A one-shot state SDC pushes the unstable problem across x = 1; the
	// classic controller cannot see it and the run diverges. Recovery rolls
	// back to the checkpoint before the corruption; the retry is clean.
	p := problems.Unstable()
	injected := false
	in := &ode.Integrator{
		Tab:  ode.HeunEuler(),
		Ctrl: control.DefaultController(p.TolA, p.TolR),
		StateHook: func(tt float64, x la.Vec) int {
			if !injected && tt > 2 {
				injected = true
				x[0] = 1.15
				return 1
			}
			return 0
		},
	}
	restarts, err := RunWithRecovery(in, p.Sys, p.T0, p.TEnd, p.X0, p.H0, NewManager(25, 2000), 40)
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if restarts == 0 {
		t.Fatal("expected at least one restart (the SDC should have diverged the run)")
	}
	want := p.Exact(p.TEnd)[0]
	if e := math.Abs(in.X()[0] - want); e > 1e-3 {
		t.Fatalf("recovered run error %g (x=%g want %g)", e, in.X()[0], want)
	}
}

func TestRunWithRecoveryBudgetExhausted(t *testing.T) {
	// A permanently broken RHS cannot be recovered.
	bad := control.Func{N: 1, F: func(tt float64, x, dst la.Vec) { dst[0] = math.NaN() }}
	in := &ode.Integrator{Tab: ode.HeunEuler(), Ctrl: control.DefaultController(1e-6, 1e-6)}
	_, err := RunWithRecovery(in, bad, 0, 1, la.Vec{1}, 0.1, NewManager(1, 2), 2)
	if err == nil {
		t.Fatal("expected ErrUnrecoverable")
	}
}

func TestManagerWrapThenDrop(t *testing.T) {
	// Exercises eviction + repeated drops past the wrap point.
	m := NewManager(1, 3)
	for step := 0; step < 10; step++ {
		m.Observe(step, float64(step), 0.1, la.Vec{float64(step)})
	}
	if m.Len() != 3 {
		t.Fatalf("len = %d", m.Len())
	}
	wantSteps := []int{9, 8, 7}
	for _, want := range wantSteps {
		snap, ok := m.Latest()
		if !ok || snap.Step != want {
			t.Fatalf("latest = %+v, want step %d", snap, want)
		}
		m.Drop()
	}
	if _, ok := m.Latest(); ok {
		t.Fatal("expected empty after dropping everything")
	}
	m.Drop() // must not panic on empty
}
