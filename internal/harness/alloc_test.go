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
// shows only here.
func TestReplicateStepAllocationFree(t *testing.T) {
	for _, kind := range []DetectorKind{Classic, LBDC, IBDC, Replication, TMR, Richardson, Oracle} {
		t.Run(string(kind), func(t *testing.T) {
			cfg := Config{Problem: problems.Oscillator(), Tab: ode.HeunEuler(), Injector: inject.Scaled{}, Detector: kind}
			scr := workerScratch{lanes: make([]laneScratch, 1)}
			var out repOutcome
			w, err := wireReplicate(&cfg, nextJob(&cfg, xrand.New(1), 0), &scr.lanes[0], &out)
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
