package ode

import "repro/internal/la"

// Stepper computes trial steps of one embedded Runge-Kutta pair; it is the
// Integrator's Method for a tableau. It owns the stage storage and the
// trial record so repeated trials allocate and copy nothing. A Stepper is
// not safe for concurrent use; distributed ranks each own one. The
// redundancy validators replay trials on clean shadow steppers of their own.
type Stepper struct {
	Tab *Tableau
	sys System

	K     []la.Vec // stage derivatives K_i
	xtmp  la.Vec   // stage state buffer
	xProp la.Vec   // proposed solution x_{n+1}
	errV  la.Vec   // embedded error estimate x - x~
	db    []float64
	res   TrialResult // the record Trial returns
}

// NewStepper returns a stepper for the pair tab applied to sys.
func NewStepper(tab *Tableau, sys System) *Stepper {
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
func (s *Stepper) Trial(t, h float64, x la.Vec, k1 la.Vec, hook StageHook) *TrialResult {
	tab := s.Tab
	res := s.res.Begin(s.xProp, s.errV, nil, tab.ControlOrder())
	for i := 0; i < tab.Stages(); i++ {
		if i == 0 && k1 != nil {
			s.K[0].CopyFrom(k1)
			continue
		}
		// xtmp = x + h * sum_j a_ij K_j
		s.xtmp.CopyFrom(x)
		for j, a := range tab.A[i] {
			if a != 0 {
				s.xtmp.AXPY(h*a, s.K[j])
			}
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
	// xProp = x + h * sum b_i K_i ; errV = h * sum (b_i - bhat_i) K_i.
	s.xProp.CopyFrom(x)
	s.errV.Zero()
	for i := 0; i < tab.Stages(); i++ {
		if tab.B[i] != 0 {
			s.xProp.AXPY(h*tab.B[i], s.K[i])
		}
		if s.db[i] != 0 {
			s.errV.AXPY(h*s.db[i], s.K[i])
		}
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
func (s *Stepper) Start(sys System, _ *Controller, _ *History) { s.Retarget(sys) }

// Retarget re-points the stepper at sys, reusing the stage storage when the
// dimension is unchanged. It lets a campaign worker recycle one stepper
// across replicates instead of reallocating Stages()+3 vectors per run.
func (s *Stepper) Retarget(sys System) {
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
