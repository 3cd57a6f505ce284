package control_test

import (
	"math"
	"testing"

	"repro/internal/control"
	_ "repro/internal/core" // registers the detector factories
	"repro/internal/la"
)

// The pipeline entry point is the hot path of every protected integrator:
// once the engine and the detector have grown their workspaces, Decide must
// not allocate (the cmd/sdcperf gate pins the whole step at zero; this guard
// localises a regression to the control package).
func TestEngineDecideAllocationFree(t *testing.T) {
	// Held as the interface so the per-call conversion does not itself box
	// the Func value and show up as a spurious allocation.
	var sys control.System = control.Func{N: 2, F: func(tt float64, x, dst la.Vec) {
		dst[0] = x[1]
		dst[1] = -x[0]
	}}
	det, err := control.New("lbdc", control.Spec{})
	if err != nil {
		t.Fatal(err)
	}
	ctrl := control.DefaultController(1e-6, 1e-6)
	hist := control.NewHistory(6, 2)
	for _, tt := range []float64{0, 0.1, 0.2, 0.3} {
		hist.Push(tt, 0.1, la.Vec{math.Cos(tt), -math.Sin(tt)})
	}

	var eng control.Engine
	eng.Reset(2)
	eng.Validator = det.Validator

	x := la.Vec{math.Cos(0.3), -math.Sin(0.3)}
	xProp := la.Vec{math.Cos(0.4), -math.Sin(0.4)}
	errVec := la.Vec{1e-9, -1e-9}
	weights := la.NewVec(2)

	decide := func() {
		eng.BeginStep()
		chk := eng.Decide(&ctrl, 3, 0.3, 0.1, x, x, xProp, errVec, weights,
			hist, nil, sys, nil, nil, false)
		if chk.ClassicReject {
			t.Fatal("trial unexpectedly classic-rejected")
		}
	}
	decide() // grow the engine and detector workspaces once
	if n := testing.AllocsPerRun(200, decide); n != 0 {
		t.Fatalf("warm Engine.Decide allocates %v times per call, want 0", n)
	}
}
