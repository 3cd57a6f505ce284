package batch

import (
	"fmt"
	"testing"

	"repro/internal/ode"
)

// Lane-permutation invariance: the place a replicate takes in the round is
// an artifact of AddLane order (and of retirements afterwards), so
// shuffling the order replicates enter the driver must change nothing a
// replicate observes — not its trajectory, not its verdict stream, not a
// single bit. Any state shared between lanes, or any dependence on the
// order a round steps them in, shows up here as a bitwise diff between runs
// that differ only in lane order.
func TestBatchLanePermutationInvariance(t *testing.T) {
	p := testProblem()
	tab := ode.HeunEuler()
	const width = 8
	// A deliberately heterogeneous group: different detectors, different
	// spans, per-replicate injection substreams — so verdicts and
	// retirements all differ by lane.
	dets := [width]string{"lbdc", "ibdc", "richardson", "classic", "lbdc", "ibdc", "tmr", "replication"}

	// run integrates the replicates with AddLane order perm and returns the
	// results indexed by replicate (not by order). RNG substreams are drawn
	// per replicate index, so a replicate's fault pattern is identical
	// under any permutation.
	run := func(perm [width]int) [width]laneResult {
		rngs := drawRNGs(0x9e3779b9, width, 0.1)
		cases := make([]wireCase, width)
		for slot, i := range perm {
			cases[slot] = wireCase{
				tab: tab, det: dets[i], p: p, rng: rngs[i],
				prob: 0.05, stateProb: 0.1,
				tEnd: 1 + 0.25*float64(i),
			}
		}
		got := runBatchLanes(t, cases, width)
		var byRep [width]laneResult
		for slot, i := range perm {
			byRep[i] = got[slot]
		}
		return byRep
	}

	want := run([width]int{0, 1, 2, 3, 4, 5, 6, 7})
	perms := [][width]int{
		{7, 6, 5, 4, 3, 2, 1, 0}, // reversed
		{4, 0, 6, 2, 7, 3, 5, 1}, // interleaved halves
		{1, 2, 3, 4, 5, 6, 7, 0}, // rotated
	}
	for pi, perm := range perms {
		got := run(perm)
		for i := range got {
			t.Run(fmt.Sprintf("perm=%d/replicate=%d", pi, i), func(t *testing.T) {
				compareLane(t, i, want[i], got[i])
			})
		}
	}
}
