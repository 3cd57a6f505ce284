package batch

import (
	"testing"

	"repro/internal/control"
	"repro/internal/ode"
	"repro/internal/problems"
)

// laneConfig wires one oscillator replicate under a fresh detector det,
// ending at tEnd.
func laneConfig(t *testing.T, det string, tab *control.Tableau, tEnd float64) LaneConfig {
	t.Helper()
	p := problems.Oscillator()
	sys := p.SysInstance()
	d, err := control.New(det, control.Spec{Tab: tab, Sys: sys})
	if err != nil {
		t.Fatal(err)
	}
	return LaneConfig{Sys: sys, Validator: d.Validator, T0: p.T0, TEnd: tEnd, X0: p.X0, H0: p.H0}
}

// TestRoundRetiresLanes pins when a lane leaves the round: a lane whose
// span is one initial step retires at its TEnd after the first round, and
// a long lane retires once it has taken MaxSteps steps. Neither retires
// with an error.
func TestRoundRetiresLanes(t *testing.T) {
	tab := ode.HeunEuler()
	const maxSteps = 5
	bi := New(Config{Tab: tab, Ctrl: control.DefaultController(1e-4, 1e-4), MaxSteps: maxSteps}, 2, 2)
	short := bi.AddLane(laneConfig(t, "lbdc", tab, problems.Oscillator().H0))
	long := bi.AddLane(laneConfig(t, "lbdc", tab, 1e3))
	want := []int{1, 1, 1, 1, 0}
	for r, live := range want {
		bi.Round()
		if bi.Live() != live {
			t.Fatalf("after round %d: %d live lanes, want %d", r+1, bi.Live(), live)
		}
	}
	if !short.in.Done() || short.Stats().Steps != 1 || short.err != nil {
		t.Errorf("short lane: done=%v after %d steps (err %v), want done after 1", short.in.Done(), short.Stats().Steps, short.err)
	}
	if long.in.Done() || long.Stats().Steps != maxSteps || long.err != nil {
		t.Errorf("long lane: done=%v after %d steps (err %v), want %d steps short of TEnd", long.in.Done(), long.Stats().Steps, long.err, maxSteps)
	}
}

// TestRoundAllocationFree pins a warm round at zero allocations, so the
// benchmark's per-lane-step replay times the lanes' steps and nothing else.
func TestRoundAllocationFree(t *testing.T) {
	tab := ode.HeunEuler()
	bi := New(Config{Tab: tab, Ctrl: control.DefaultController(1e-4, 1e-4), MaxSteps: 1 << 30, MinStep: 1e-12}, 4, 2)
	for i := 0; i < 4; i++ {
		bi.AddLane(laneConfig(t, "ibdc", tab, 1e15))
	}
	for i := 0; i < 200; i++ {
		bi.Round()
	}
	if n := testing.AllocsPerRun(200, bi.Round); n != 0 {
		t.Errorf("warm round allocates %v times, want 0", n)
	}
	if bi.Live() != 4 {
		t.Fatalf("%d of 4 lanes live; the rounds were not all warm steps", bi.Live())
	}
}
