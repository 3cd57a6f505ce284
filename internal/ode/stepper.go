package ode

import (
	"repro/internal/control"
	"repro/internal/la"
)

// Stepper computes trial steps of one embedded Runge-Kutta pair; it is the
// Integrator's Method for a tableau. It owns the stage storage and the
// trial record so repeated trials allocate and copy nothing. A Stepper is
// not safe for concurrent use; distributed ranks each own one. The
// redundancy validators replay trials on clean shadow steppers of their own.
type Stepper struct {
	Tab *control.Tableau
	sys control.System

	K     []la.Vec // stage derivatives K_i
	xtmp  la.Vec   // stage state buffer
	xProp la.Vec   // proposed solution x_{n+1}
	errV  la.Vec   // embedded error estimate x - x~
	db    []float64
	res   control.TrialResult // the record Trial returns
}

// NewStepper returns a stepper for the pair tab applied to sys.
func NewStepper(tab *control.Tableau, sys control.System) *Stepper {
	if err := tab.Validate(); err != nil {
		panic(err)
	}
	m := sys.Dim()
	s := &Stepper{Tab: tab, sys: sys}
	s.K = make([]la.Vec, tab.Stages())
	for i := range s.K {
		s.K[i] = la.NewVec(m)
	}
	s.xtmp = la.NewVec(m)
	s.xProp = la.NewVec(m)
	s.errV = la.NewVec(m)
	s.db = make([]float64, tab.Stages())
	for i := range s.db {
		s.db[i] = tab.B[i] - tab.BHat[i]
	}
	return s
}

// Trial computes one trial step from (t, x) with step size h.
//
// k1 optionally supplies a precomputed f(t, x) to be used as the first stage
// (the first-same-as-last reuse of §V-B); pass nil to evaluate it. hook, if
// non-nil, is called after each fresh stage evaluation and may corrupt the
// stage in place. Reused first stages are not re-presented to the hook: they
// were already exposed to corruption when first computed.
//
// The result is the stepper's own record: it and its vectors are valid
// until the next Trial, so a caller holding two results of one stepper
// copies what it keeps from the first before the second call.
func (s *Stepper) Trial(t, h float64, x la.Vec, k1 la.Vec, hook control.StageHook) *control.TrialResult {
	tab := s.Tab
	res := s.res.Begin(s.xProp, s.errV, nil, tab.ControlOrder())
	for i := 0; i < tab.Stages(); i++ {
		if i == 0 && k1 != nil {
			s.K[0].CopyFrom(k1)
			continue
		}
		// xtmp = x + h * sum_j a_ij K_j, one sweep per nonzero a_ij: the
		// first reads x, the later ones accumulate into xtmp.
		src := x
		swept := false
		for j, a := range tab.A[i] {
			if a != 0 {
				sweep(s.xtmp, src, h*a, s.K[j])
				src, swept = s.xtmp, true
			}
		}
		if !swept {
			s.xtmp.CopyFrom(x)
		}
		st := t + tab.C[i]*h
		s.sys.Eval(st, s.xtmp, s.K[i])
		res.Evals++
		if hook != nil {
			n := hook(i, st, s.K[i])
			res.Injections += n
			if i == tab.Stages()-1 {
				res.LastStageInjections += n
			}
		}
	}
	// xProp = x + h * sum b_i K_i ; errV = h * sum (b_i - bhat_i) K_i, in
	// one sweep per stage over both. A vector's first sweep initializes it,
	// xProp from x and errV from 0; the later ones accumulate. Some b_i is
	// nonzero, since Validate holds the weights to a sum of 1. The error's
	// first sweep adds its products to 0, so a -0 product becomes +0.
	xp, ev := s.xProp, s.errV
	xSrc := x
	eSwept := false
	for i, k := range s.K {
		b, d := tab.B[i], s.db[i]
		if b == 0 && d == 0 {
			continue
		}
		if len(xSrc) != len(xp) || len(k) != len(xp) || len(ev) != len(xp) {
			panic("ode: Trial vector length mismatch")
		}
		hb, hd := h*b, h*d
		switch {
		case d == 0:
			sweep(xp, xSrc, hb, k)
		case b == 0 && eSwept:
			sweep(ev, ev, hd, k)
		case b == 0:
			for c := range ev {
				ev[c] = 0 + hd*k[c]
			}
		case eSwept:
			for c := range xp {
				xp[c] = xSrc[c] + hb*k[c]
				ev[c] += hd * k[c]
			}
		default:
			for c := range xp {
				xp[c] = xSrc[c] + hb*k[c]
				ev[c] = 0 + hd*k[c]
			}
		}
		if b != 0 {
			xSrc = xp
		}
		eSwept = eSwept || d != 0
	}
	if !eSwept {
		ev.Zero() // B = BHat: a pair without an error estimate
	}
	if tab.FSAL {
		// By construction the last stage abscissa is 1 and its A row equals
		// B, so K[last] = f(t+h, xProp)... except that the stage was
		// evaluated at x + h*sum(A[last]) which equals xProp only without
		// corruption of xProp assembly; since xProp is assembled from the
		// same stages, the identity holds exactly.
		res.FProp = s.K[tab.Stages()-1]
	}
	return res
}

// Dim returns the system dimension. It delegates to the system rather than
// measuring a buffer, so a refactor of the stage storage layout can never
// skew the reported dimension.
func (s *Stepper) Dim() int { return s.sys.Dim() }

// Start implements Method: an explicit pair needs only the system.
func (s *Stepper) Start(sys control.System, _ *control.Controller, _ *control.History) {
	s.Retarget(sys)
}

// Retarget re-points the stepper at sys, reusing the stage storage when the
// dimension is unchanged. It lets a campaign worker recycle one stepper
// across replicates instead of reallocating Stages()+3 vectors per run.
func (s *Stepper) Retarget(sys control.System) {
	if sys.Dim() == len(s.xProp) {
		s.sys = sys
		return
	}
	m := sys.Dim()
	s.sys = sys
	for i := range s.K {
		s.K[i] = la.NewVec(m)
	}
	s.xtmp = la.NewVec(m)
	s.xProp = la.NewVec(m)
	s.errV = la.NewVec(m)
}

// sweep sets dst = src + c*k component by component: one AXPY that also
// initializes dst when src is another vector, or accumulates into it when
// src is dst itself.
func sweep(dst, src la.Vec, c float64, k la.Vec) {
	if len(src) != len(dst) || len(k) != len(dst) {
		panic("ode: sweep length mismatch")
	}
	for i := range dst {
		dst[i] = src[i] + c*k[i]
	}
}
