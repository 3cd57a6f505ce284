package ode

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/control"
	"repro/internal/la"
	"repro/internal/xrand"
)

// sweepSpecials are the values the sweeps' bit contract is most likely to
// break on: NaN, the infinities, both zeros, subnormals and the largest
// magnitudes.
var sweepSpecials = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
	5e-324, -5e-324, 1e-310, 1e308, -1e308, 1, -1,
}

// sweepSource hands out the fuzz input's values: 9-byte records (a selector
// byte, then 8 bits) pick a special value, a moderate one or raw bits, and
// once the records run out a stream seeded by the input continues with
// moderate values.
type sweepSource struct {
	raw []byte
	r   *xrand.RNG
}

func (s *sweepSource) next() float64 {
	if len(s.raw) < 9 {
		return 4*s.r.Float64() - 2
	}
	sel, bits := s.raw[0], binary.LittleEndian.Uint64(s.raw[1:9])
	s.raw = s.raw[9:]
	switch sel % 4 {
	case 0:
		return sweepSpecials[bits%uint64(len(sweepSpecials))]
	case 1:
		return float64(int64(bits)) / (1 << 62) // in [-2, 2)
	}
	return math.Float64frombits(bits)
}

func (s *sweepSource) vec(m int) la.Vec {
	v := la.NewVec(m)
	for i := range v {
		v[i] = s.next()
	}
	return v
}

// sweepSys is a linear right-hand side that records every state it is
// evaluated at, so the stage inputs are compared too.
type sweepSys struct {
	m      int
	inputs []la.Vec
}

func (s *sweepSys) Dim() int { return s.m }

func (s *sweepSys) Eval(t float64, x, dst la.Vec) {
	s.inputs = append(s.inputs, x.Clone())
	for i := range dst {
		dst[i] = 0.5*x[i] - 0.25*x[(i+1)%len(x)] + 0.125*t
	}
}

// midpointEuler is the explicit midpoint rule with Euler embedded: its
// first stage carries an error weight but no solution weight, a case no
// shipped pair has.
func midpointEuler() *control.Tableau {
	return &control.Tableau{
		Name:          "midpoint-euler",
		A:             [][]float64{{}, {0.5}},
		B:             []float64{0, 1},
		BHat:          []float64{1, 0},
		C:             []float64{0, 0.5},
		Order:         2,
		EmbeddedOrder: 1,
	}
}

// FuzzSweepsMatchReference holds the protected step's one-sweep assemblies
// to the pass-per-operation references of reference_test.go, bit for bit
// (NaNs by class):
//   - Stepper.Trial on every shipped tableau and midpointEuler, at
//     dimensions 1–9, with the first stage carried in or evaluated, under a
//     hook that overwrites one component of the chosen stages: every stage
//     input, the proposal, the error estimate, FProp and the counters;
//   - Controller.Score, with the max norm on and off, on the trial's output
//     and on drawn vectors: the score, the weights, and weights left
//     untouched when the proposal or the estimate is poisoned;
//   - the LIP estimate at orders 3 down to 0 and the BDF estimate at orders
//     3 down to 1 on one warm workspace each, over a history of one to five
//     entries (the ring holds four) whose times advance, repeat or move by
//     one ulp: the estimate and the order used.
//
// The committed corpus (testdata/fuzz) includes a stage whose product with
// the error weight is -0, which a zeroed error vector turns into +0.
func FuzzSweepsMatchReference(f *testing.F) {
	f.Add(uint8(0), uint8(1), false, false, uint8(0), uint8(0), uint8(0), 0.01, 0.0, 0.01, uint16(0), uint64(1), []byte{})
	f.Add(uint8(2), uint8(8), true, true, uint8(0x55), uint8(3), uint8(1), 0.125, 1.0, 0.25, uint16(0x1e5), uint64(7), []byte{})
	f.Fuzz(func(t *testing.T, tabSel, dimSel uint8, carryK1, maxNorm bool, hookMask, hookAt, tolSel uint8,
		h, t0, dt float64, times uint16, seed uint64, raw []byte) {
		tabs := append(AllTableaus(), midpointEuler())
		tab := tabs[int(tabSel)%len(tabs)]
		m := 1 + int(dimSel)%9
		src := &sweepSource{raw: raw, r: xrand.New(seed)}
		x := src.vec(m)
		k1 := src.vec(m)
		if !carryK1 {
			k1 = nil
		}
		var corrupt [8]float64
		for i := range corrupt {
			corrupt[i] = src.next()
		}
		hook := func(stage int, _ float64, k la.Vec) int {
			if hookMask>>stage&1 == 0 {
				return 0
			}
			k[int(hookAt)%len(k)] = corrupt[stage]
			return 1
		}

		// The trial, on a warm stepper: nothing the first trial leaves
		// behind, nor a caller scribbling on its record, may leak into the
		// second.
		sys, refSys := &sweepSys{m: m}, &sweepSys{m: m}
		st := NewStepper(tab, sys)
		stale := la.NewVec(m)
		stale.Fill(math.NaN())
		first := st.Trial(t0, h, stale, nil, nil)
		first.XProp.Fill(math.NaN())
		first.ErrVec.Fill(math.NaN())
		sys.inputs = nil
		res := st.Trial(t0, h, x, k1, hook)
		xProp, errV, fProp, ref := referenceTrial(tab, refSys, t0, h, x, k1, hook)
		if len(sys.inputs) != len(refSys.inputs) {
			t.Fatalf("%s: %d stage evaluations, reference %d", tab.Name, len(sys.inputs), len(refSys.inputs))
		}
		for i := range sys.inputs {
			if d := diffBits(sys.inputs[i], refSys.inputs[i]); d != "" {
				t.Fatalf("%s: stage input %d: %s", tab.Name, i, d)
			}
		}
		if res.Evals != ref.Evals || res.Injections != ref.Injections || res.LastStageInjections != ref.LastStageInjections {
			t.Fatalf("%s: counters (evals %d, injections %d, last %d), reference (%d, %d, %d)", tab.Name,
				res.Evals, res.Injections, res.LastStageInjections, ref.Evals, ref.Injections, ref.LastStageInjections)
		}
		if d := diffBits(res.XProp, xProp); d != "" {
			t.Fatalf("%s: proposal %s", tab.Name, d)
		}
		if d := diffBits(res.ErrVec, errV); d != "" {
			t.Fatalf("%s: error estimate %s", tab.Name, d)
		}
		if (res.FProp == nil) != (fProp == nil) {
			t.Fatalf("%s: FProp set %v, reference %v", tab.Name, res.FProp != nil, fProp != nil)
		}
		if d := diffBits(res.FProp, fProp); d != "" {
			t.Fatalf("%s: FProp %s", tab.Name, d)
		}

		// The classic score.
		tols := [][2]float64{{1e-6, 1e-6}, {1e-3, 0}, {0, 0}}[int(tolSel)%3]
		ctrl := control.DefaultController(tols[0], tols[1])
		ctrl.MaxNorm = maxNorm
		score := func(what string, xs, es la.Vec) {
			const sentinel = 0.75
			w, wRef := la.NewVec(m), la.NewVec(m)
			w.Fill(sentinel)
			wRef.Fill(sentinel)
			got := ctrl.Score(w, xs, es)
			want := referenceScore(&ctrl, wRef, xs, es)
			if !sameBits(got, want) {
				t.Fatalf("%s: Score = %g (%#x), reference %g (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if d := diffBits(w, wRef); d != "" {
				t.Fatalf("%s: weights %s", what, d)
			}
			if xs.HasNaNOrInf() || es.HasNaNOrInf() {
				for i, v := range w {
					if math.Float64bits(v) != math.Float64bits(sentinel) {
						t.Fatalf("%s: poisoned Score wrote weight %d = %g", what, i, v)
					}
				}
			}
		}
		score(tab.Name+" trial", res.XProp, res.ErrVec)
		score("drawn", x, src.vec(m))

		// The second estimates.
		hist := control.NewHistory(4, m)
		tk := t0
		for k := 0; k <= int(times%5); k++ {
			if k > 0 {
				switch times >> (3 + 2*(k-1)) & 3 {
				case 2: // repeated
				case 3:
					tk = math.Nextafter(tk, math.Inf(1))
				default:
					tk += 0.1 * float64(k)
				}
			}
			hist.Push(tk, src.vec(m))
		}
		tq := hist.T(0) + dt
		fq := src.vec(m)
		var lip LIPEstimator
		for q := 3; q >= 0; q-- {
			if hist.Len() < q+1 {
				continue
			}
			got, want := la.NewVec(m), la.NewVec(m)
			got.Fill(math.NaN()) // Estimate must overwrite every component
			qGot, qWant := lip.Estimate(got, hist, q, tq), referenceLIP(want, hist, q, tq)
			if qGot != qWant {
				t.Fatalf("LIP order %d: used %d, reference %d", q, qGot, qWant)
			}
			if d := diffBits(got, want); d != "" {
				t.Fatalf("LIP order %d: %s", q, d)
			}
		}
		var bdf BDFEstimator
		for q := 3; q >= 1; q-- {
			if hist.Len() < q {
				continue
			}
			got, want := la.NewVec(m), la.NewVec(m)
			got.Fill(math.NaN())
			qGot, qWant := bdf.Estimate(got, hist, q, tq, fq), referenceBDF(want, hist, q, tq, fq)
			if qGot != qWant {
				t.Fatalf("BDF order %d: used %d, reference %d", q, qGot, qWant)
			}
			if d := diffBits(got, want); d != "" {
				t.Fatalf("BDF order %d: %s", q, d)
			}
		}
	})
}
