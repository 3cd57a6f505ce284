// Package core implements the paper's contribution: double-checking the
// step-acceptance decision of an adaptive ODE solver with a second,
// independently structured error estimate (§V).
//
// Two strategies compute the second estimate x~_n of the accepted solution
// x_n:
//
//   - LBDC (Lagrange-interpolating-polynomial-based double-checking, §V-A):
//     extrapolates previous accepted solutions through variable-step
//     Lagrange polynomials — the adaptive-step generalization of the AID
//     detector's extrapolation surrogates.
//   - IBDC (integration-based double-checking, §V-B): predicts x_n with a
//     variable-step backward differentiation formula, reusing the solver's
//     own f(x_n) evaluation so accepted steps cost no extra work.
//
// The scaled second error SErr_2 = ||(x_n - x~_n)/Err|| rejects the step
// when it exceeds 1. Because the two estimates disagree more at some orders
// than others, Algorithm 1 adapts the order q of the second estimate online
// from the observed false-positive rate; false positives are recognized at
// runtime because a validator-rejected step is recomputed with the same
// step size, and a clean recomputation reproduces the bit-identical scaled
// error SErr_1.
//
// The package also ships the comparison detectors of the evaluation and
// related-work sections: replication, triple modular redundancy, AID,
// Hot Rode, and Richardson-extrapolation checking.
package core

import (
	"fmt"

	"repro/internal/control"
	"repro/internal/la"
	"repro/internal/ode"
)

// Strategy computes the second error estimate's prediction x~_n.
type Strategy interface {
	// OrderRange returns the inclusive order bounds [qMin, qMax].
	OrderRange() (qMin, qMax int)
	// EffectiveOrder clamps q to what the current history supports; a
	// negative result means no estimate is possible yet.
	EffectiveOrder(c *control.CheckContext, q int) int
	// Estimate fills dst with x~ at time c.T+c.H using order q.
	Estimate(dst la.Vec, c *control.CheckContext, q int)
}

// qMax is Algorithm 1's order cap q_max = 3 (§V-C), shared by both
// strategies; for BDF it is also the stability-safe cap.
const qMax = 3

// LIP is the Lagrange-interpolating-polynomial strategy (orders 0..q_max).
// The paper prints closed forms for orders 0-2 but caps the order
// adaptation at q_max = 3 (§V-C); the general Lagrange weights support any
// order.
//
// The strategy carries its estimator workspace, so Estimate requires a
// pointer receiver and steady-state checks allocate nothing.
type LIP struct {
	est ode.LIPEstimator
}

// OrderRange implements Strategy.
func (LIP) OrderRange() (int, int) { return 0, qMax }

// EffectiveOrder implements Strategy.
func (LIP) EffectiveOrder(c *control.CheckContext, q int) int {
	return ode.MaxLIPOrder(c.Hist, min(q, qMax))
}

// Estimate implements Strategy.
func (s *LIP) Estimate(dst la.Vec, c *control.CheckContext, q int) {
	s.est.Estimate(dst, c.Hist, q, c.T+c.H)
}

// BDF is the variable-step backward-differentiation-formula strategy
// (orders 1..q_max). It consumes f(x_n), which FSAL pairs provide for free
// and which other pairs reuse as the next step's first stage. Like LIP, it
// carries its estimator workspace so checks allocate nothing.
type BDF struct {
	est ode.BDFEstimator
}

// OrderRange implements Strategy.
func (BDF) OrderRange() (int, int) { return 1, qMax }

// EffectiveOrder implements Strategy.
func (BDF) EffectiveOrder(c *control.CheckContext, q int) int {
	eff := ode.MaxBDFOrder(c.Hist, min(q, qMax))
	if eff < 1 {
		return -1
	}
	return eff
}

// Estimate implements Strategy.
func (s *BDF) Estimate(dst la.Vec, c *control.CheckContext, q int) {
	s.est.Estimate(dst, c.Hist, q, c.T+c.H, c.FProp())
}

// Stats accumulates double-checking counters.
type Stats struct {
	Checks       int // validations performed
	Rejections   int // steps vetoed by the second estimate
	FPRescues    int // rejections later self-identified as false positives
	OrderChanges int // Algorithm 1 order moves
	OrderSum     int // sum of effective orders used (for mean order)
	Skipped      int // validations skipped for lack of history
}

// MeanOrder returns the average effective order used across checks.
func (s *Stats) MeanOrder() float64 {
	n := s.Checks - s.Skipped
	if n <= 0 {
		return 0
	}
	return float64(s.OrderSum) / float64(n)
}

// DoubleCheck is the paper's detector (Algorithm 1): it validates every
// controller-accepted step against a second scaled error estimate and
// adapts the estimate's order through the embedded control.Policy (the one
// implementation of the (q, c) state machine). The Policy's ablation
// switch NoAdapt promotes to a DoubleCheck field.
type DoubleCheck struct {
	Strat Strategy

	control.Policy

	est la.Vec

	Stats Stats

	inited bool
}

// NewDoubleCheck returns a detector with the paper's constants.
func NewDoubleCheck(strat Strategy) *DoubleCheck {
	return &DoubleCheck{Strat: strat}
}

// NewLBDC returns the LIP-based double-checking with default settings.
func NewLBDC() *DoubleCheck { return NewDoubleCheck(&LIP{}) }

// NewIBDC returns the integration-based double-checking with defaults.
func NewIBDC() *DoubleCheck { return NewDoubleCheck(&BDF{}) }

func (d *DoubleCheck) init() {
	if d.inited {
		return
	}
	d.inited = true
	qMin, qMax := d.Strat.OrderRange()
	d.Policy.Init(qMin, qMax)
}

// Order returns the order currently selected by Algorithm 1.
func (d *DoubleCheck) Order() int {
	d.init()
	return d.Policy.Order()
}

// SetOrder overrides the current order (used by ablations and tests).
func (d *DoubleCheck) SetOrder(q int) {
	d.init()
	qMin, qMax := d.Strat.OrderRange()
	if q < qMin || q > qMax {
		panic(fmt.Sprintf("core: order %d outside [%d, %d]", q, qMin, qMax))
	}
	d.Policy.SetOrder(q)
}

// Validate implements control.Validator with Algorithm 1. The accept/reject
// arithmetic and the order bookkeeping live in internal/control; this method
// wires them to the Strategy's second estimate and keeps the statistics.
func (d *DoubleCheck) Validate(c *control.CheckContext) control.Verdict {
	d.init()
	d.Stats.Checks++

	// Periodic order reselection.
	if d.Policy.BeginCheck() {
		d.Stats.OrderChanges++
	}

	// False-positive self-detection: a recomputation of a step we rejected
	// that reproduces the identical scaled error must have been clean.
	if rescued, changed := d.Policy.Rescue(c.SErr1, c.Recomputation); rescued {
		if changed {
			d.Stats.OrderChanges++
		}
		d.Stats.FPRescues++
		c.ReportCheck(-1, d.Policy.Order(), d.Policy.Window())
		return control.VerdictFPRescue
	}

	q := d.Strat.EffectiveOrder(c, d.Policy.Order())
	if q < 0 {
		d.Stats.Skipped++
		return control.VerdictAccept // not enough history yet
	}
	d.Stats.OrderSum += q

	if d.est == nil {
		//lint:allow allocfree -- one-time scratch: sized on the first check, reused forever after
		d.est = la.NewVec(len(c.XProp))
	}
	d.Strat.Estimate(d.est, c, q)
	sErr2 := c.Ctrl.ScaledDiff(c.XProp, d.est, c.Weights)
	c.ReportCheck(sErr2, d.Policy.Order(), d.Policy.Window())
	if control.DetectorReject(sErr2) {
		d.Policy.NoteReject(c.SErr1)
		d.Stats.Rejections++
		return control.VerdictReject
	}
	d.Policy.NoteAccept()
	return control.VerdictAccept
}
