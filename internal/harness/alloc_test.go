package harness

import (
	"testing"

	"repro/internal/inject"
	"repro/internal/ode"
	"repro/internal/problems"
	"repro/internal/xrand"
)

// TestReplicateStepAllocationFree pins a campaign's warm protected step at
// zero allocations with the replicate wired exactly as runReplicate wires
// it: the registry detector, the 1/100 stage-injection hook, the
// significance OnTrial with its clean shadow recomputation, and the
// worker's recycled integrator. sdcperf's gated matrix builds bare
// integrators without hooks, so an allocation the wiring adds per step
// shows only here. Every detector kind runs an adaptive cell; the
// unguarded solver and the related-work detectors also run a fixed-step
// one.
func TestReplicateStepAllocationFree(t *testing.T) {
	type cell struct {
		name  string
		kind  DetectorKind
		fixed bool
	}
	var cells []cell
	for _, kind := range AllDetectors() {
		cells = append(cells, cell{string(kind), kind, false})
	}
	for _, kind := range []DetectorKind{Classic, AID, HotRode} {
		cells = append(cells, cell{"fixed-" + string(kind), kind, true})
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{Problem: problems.Oscillator(), Tab: ode.HeunEuler(), Injector: inject.Scaled{}, Detector: c.kind, FixedStep: c.fixed}
			var scr workerScratch
			var out repOutcome
			w, err := wireReplicate(&cfg, nextJob(&cfg, xrand.New(1), 0), &scr, &out)
			if err != nil {
				t.Fatal(err)
			}
			in := &scr.in
			startReplicate(in, &cfg, w, nil)
			step := func() {
				if err := in.Step(); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 200; i++ {
				step()
			}
			if n := testing.AllocsPerRun(500, step); n != 0 {
				t.Errorf("warm campaign step allocates %v times per step, want 0", n)
			}
			if out.rates.Injections == 0 {
				t.Fatal("no injection reached the significance observer; the guard is vacuous")
			}
		})
	}
}
