package control

import (
	"math"
	"testing"

	"repro/internal/la"
)

// oneRank is the reduction of a single-rank world: every value is its own
// total.
type oneRank struct{}

func (oneRank) Sum([]float64) {}
func (oneRank) Max([]float64) {}

// poisonedPeer stands for a world whose other rank holds a NaN proposal: it
// contributes nothing but the poisoned flag, the last element.
type poisonedPeer struct{}

func (poisonedPeer) Sum(v []float64) { v[len(v)-1]++ }
func (poisonedPeer) Max(v []float64) { v[len(v)-1] = math.Max(v[len(v)-1], 1) }

// With Ranks set, the norms are finished through the reduction; on one rank
// they must equal the serial norms bit for bit, and the NaN screen must
// ride on the same reduction, so a clean rank whose peer is poisoned scores
// +Inf like the peer instead of skipping to a different collective.
func TestRanksNormsFinishThroughReduction(t *testing.T) {
	x := la.Vec{1.5, -2, 0.25, 3}
	e := la.Vec{1e-5, -3e-4, 2e-6, 7e-5}
	est := la.Vec{1.5001, -2.0003, 0.2499, 3.00002}
	for _, maxNorm := range []bool{false, true} {
		serial := Controller{TolA: 1e-4, TolR: 1e-4, MaxNorm: maxNorm}
		ranked := serial
		ranked.Ranks = oneRank{}
		w1, w2 := la.NewVec(len(x)), la.NewVec(len(x))
		if a, b := serial.Score(w1, x, e), ranked.Score(w2, x, e); math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("maxNorm=%v: Score %v on one rank, %v serial", maxNorm, b, a)
		}
		if a, b := serial.ScaledDiff(x, est, w1), ranked.ScaledDiff(x, est, w2); math.Float64bits(a) != math.Float64bits(b) {
			t.Errorf("maxNorm=%v: ScaledDiff %v on one rank, %v serial", maxNorm, b, a)
		}
		if s := ranked.Score(w2, x, la.Vec{math.NaN(), 0, 0, 0}); !math.IsInf(s, 1) {
			t.Errorf("maxNorm=%v: poisoned estimate scored %v, want +Inf", maxNorm, s)
		}
		ranked.Ranks = poisonedPeer{}
		if s := ranked.Score(w2, x, e); !math.IsInf(s, 1) {
			t.Errorf("maxNorm=%v: clean rank with a poisoned peer scored %v, want +Inf", maxNorm, s)
		}
	}
}
