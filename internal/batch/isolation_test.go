package batch

import (
	"fmt"
	"testing"

	"repro/internal/control"
	"repro/internal/inject"
	"repro/internal/ode"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// The lane-isolation property: a fault injected into lane i perturbs only
// lane i. Every other lane of the round must stay bit-identical — same
// trajectory, same verdict stream, same counters — to the same round run
// fault-free. This is the driver's analog of the campaign guarantee that
// replicates share no mutable state: a corrupted lane must not leak into
// its neighbours through the round or its retirement bookkeeping.

// runIsolationBatch runs one group where only lane faulty receives stage
// injections (faulty < 0 = fault-free group); every lane uses the same
// span.
func runIsolationBatch(tb testing.TB, width, faulty int, seed uint64) []laneResult {
	tb.Helper()
	p := testProblem()
	tab := ode.HeunEuler()
	bi := newBatch(p, tab, width)
	lanes := make([]*Lane, width)
	wires := make([]wiring, width)
	for i := range lanes {
		w := wiring{sys: &control.CountingSystem{Sys: p.SysInstance()}, rec: telemetry.NewRecorder(1 << 16)}
		if i == faulty {
			// A hot plan: every fifth trial-step evaluation corrupts hard,
			// so the fault stream exercises accepts, classic rejects, and
			// NaN poisoning in lane i while the others stay clean. The LBDC
			// validator makes injection also drive validator rejections and
			// rescues.
			plan := inject.NewPlan(xrand.New(seed), inject.MultiBit{})
			plan.Prob = 0.2
			w.hook = plan.Hook
			det, err := control.New("lbdc", control.Spec{Tab: tab, Sys: w.sys})
			if err != nil {
				tb.Fatal(err)
			}
			w.validator = det.Validator
		}
		wires[i] = w
		lanes[i] = w.addLane(bi, wireCase{p: p})
	}
	drain(bi)
	out := make([]laneResult, width)
	for i, ln := range lanes {
		out[i] = wires[i].result(ln)
	}
	return out
}

// TestLaneIsolation checks the property for every faulty-lane position of
// an 8-wide group, across several fault seeds.
func TestLaneIsolation(t *testing.T) {
	const width = 8
	clean := runIsolationBatch(t, width, -1, 0)
	for _, seed := range []uint64{1, 0xdead, 0x5eed} {
		for faulty := 0; faulty < width; faulty++ {
			t.Run(fmt.Sprintf("seed=%#x/faulty=%d", seed, faulty), func(t *testing.T) {
				got := runIsolationBatch(t, width, faulty, seed)
				for i := 0; i < width; i++ {
					if i == faulty {
						continue
					}
					compareLane(t, i, clean[i], got[i])
				}
			})
		}
	}
}

// TestLaneIsolationPerturbs is the property's other half: the faulty lane
// itself must actually diverge from its clean run (otherwise the test above
// proves nothing).
func TestLaneIsolationPerturbs(t *testing.T) {
	const width = 8
	clean := runIsolationBatch(t, width, -1, 0)
	got := runIsolationBatch(t, width, 3, 1)
	same := got[3].stats == clean[3].stats && got[3].tBits == clean[3].tBits
	if same && len(got[3].events) == len(clean[3].events) {
		t.Fatalf("faulty lane did not diverge from the clean group; the isolation property is vacuous")
	}
}
