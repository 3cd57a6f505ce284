package control

import "math"

// The accept/reject predicates of the protected step. These two functions
// are the only implementation of the classic-reject and detector-reject
// rules in the tree; every solver reaches them through the decide engines and
// the detectors, so the NaN-poisoning rules cannot drift between copies
// again.

// ClassicReject decides the classic controller's verdict for the scaled
// error SErr_1: the trial is rejected when the estimate exceeds the
// tolerance or is NaN. Every ordered comparison with NaN is false, so a
// plain `sErr > 1` guard would fall through to acceptance — the exact
// silent-corruption hazard this solver exists to catch. (+Inf estimates
// reject through the sErr > 1 branch.)
func ClassicReject(sErr1 float64) bool {
	return math.IsNaN(sErr1) || sErr1 > 1
}

// DetectorReject decides the double-check's verdict for the second scaled
// estimate SErr_2, with the same NaN-rejects rule as ClassicReject.
func DetectorReject(sErr2 float64) bool {
	return math.IsNaN(sErr2) || sErr2 > 1
}
