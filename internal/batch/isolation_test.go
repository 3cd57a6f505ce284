package batch_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/batch"
	"repro/internal/control"
	"repro/internal/inject"
	"repro/internal/ode"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// The lane-isolation property: a fault injected into lane i perturbs only
// lane i. Every other lane of the batch must stay bit-identical — same
// trajectory, same verdict stream, same counters — to the same batch run
// fault-free. This is the structure-of-arrays analog of the campaign
// guarantee that replicates share no mutable state: a corrupted column must
// not leak into its neighbours through the shared SoA rows, the stage
// buffers, or the compaction bookkeeping.

// runIsolationBatch runs one batch where only lane faulty receives stage
// injections (faulty < 0 = fault-free batch); every lane uses the same
// detector and span.
func runIsolationBatch(tb testing.TB, width, faulty int, seed uint64) []laneResult {
	tb.Helper()
	p := testProblem()
	tab := ode.HeunEuler()
	bi := batch.New(batch.Config{
		Tab: tab, Ctrl: ode.DefaultController(p.TolA, p.TolR),
		MaxSteps: 1 << 18, MaxStep: p.MaxStep,
	}, width, len(p.X0))
	refs := make([]*batch.Lane, width)
	recs := make([]*telemetry.Recorder, width)
	for i := 0; i < width; i++ {
		lc := batch.LaneConfig{
			Sys: p.SysInstance(),
			T0:  p.T0, TEnd: p.TEnd, X0: p.X0, H0: p.H0,
		}
		if i == faulty {
			// A hot plan: every fifth trial-step evaluation corrupts hard,
			// so the fault stream exercises accepts, classic rejects, and
			// NaN poisoning in lane i while the others stay clean.
			plan := inject.NewPlan(xrand.New(seed), inject.MultiBit{})
			plan.Prob = 0.2
			lc.Hook = plan.Hook
			det, err := buildDetector(tab, lc.Sys)
			if err != nil {
				tb.Fatal(err)
			}
			lc.Validator = det
		}
		recs[i] = telemetry.NewRecorder(1 << 16)
		lc.Tracer = recs[i]
		refs[i] = bi.AddLane(lc)
	}
	bi.Run()
	out := make([]laneResult, width)
	for i, ln := range refs {
		out[i] = laneResult{err: ln.Err(), stats: ln.Stats(),
			tBits: math.Float64bits(ln.T()), xBits: bitsOf(ln.X()), events: recs[i].Events()}
	}
	return out
}

// buildDetector gives the faulty lane an LBDC validator so injection also
// drives validator rejections and rescues, not just classic rejects.
func buildDetector(tab *ode.Tableau, sys ode.System) (ode.Validator, error) {
	det, err := control.New("lbdc", control.Spec{Tab: tab, Sys: sys})
	if err != nil {
		return nil, err
	}
	return det.Validator, nil
}

// TestLaneIsolation checks the property for every faulty-lane position of
// an 8-wide batch, across several fault seeds.
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
// proves nothing), and must still match its own serial oracle.
func TestLaneIsolationPerturbs(t *testing.T) {
	const width = 8
	clean := runIsolationBatch(t, width, -1, 0)
	got := runIsolationBatch(t, width, 3, 1)
	same := got[3].stats == clean[3].stats && got[3].tBits == clean[3].tBits
	if same && len(got[3].events) == len(clean[3].events) {
		t.Fatalf("faulty lane did not diverge from the clean batch; the isolation property is vacuous")
	}
}
