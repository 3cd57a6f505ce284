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
	// Name identifies the strategy ("lip" or "bdf").
	Name() string
	// OrderRange returns the inclusive order bounds [qMin, qMax].
	OrderRange() (qMin, qMax int)
	// EffectiveOrder clamps q to what the current history supports; a
	// negative result means no estimate is possible yet.
	EffectiveOrder(c *ode.CheckContext, q int) int
	// Estimate fills dst with x~ at time c.T+c.H using order q.
	Estimate(dst la.Vec, c *ode.CheckContext, q int)
	// ExtraVectors reports how many persistent solution-sized vectors the
	// strategy requires at order q beyond the classic controller's storage
	// (x_{n-1} is already held by the solver).
	ExtraVectors(q int) int
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

// Name implements Strategy.
func (LIP) Name() string { return "lip" }

// OrderRange implements Strategy.
func (LIP) OrderRange() (int, int) { return 0, qMax }

// EffectiveOrder implements Strategy.
func (LIP) EffectiveOrder(c *ode.CheckContext, q int) int {
	return ode.MaxLIPOrder(c.Hist, min(q, qMax))
}

// Estimate implements Strategy.
func (s *LIP) Estimate(dst la.Vec, c *ode.CheckContext, q int) {
	s.est.Estimate(dst, c.Hist, q, c.T+c.H)
}

// ExtraVectors implements Strategy: order q interpolates q+1 previous
// solutions, of which x_{n-1} is free.
func (LIP) ExtraVectors(q int) int { return q }

// BDF is the variable-step backward-differentiation-formula strategy
// (orders 1..q_max). It consumes f(x_n), which FSAL pairs provide for free
// and which other pairs reuse as the next step's first stage. Like LIP, it
// carries its estimator workspace so checks allocate nothing.
type BDF struct {
	est ode.BDFEstimator
}

// Name implements Strategy.
func (BDF) Name() string { return "bdf" }

// OrderRange implements Strategy.
func (BDF) OrderRange() (int, int) { return 1, qMax }

// EffectiveOrder implements Strategy.
func (BDF) EffectiveOrder(c *ode.CheckContext, q int) int {
	eff := ode.MaxBDFOrder(c.Hist, min(q, qMax))
	if eff < 1 {
		return -1
	}
	return eff
}

// Estimate implements Strategy.
func (s *BDF) Estimate(dst la.Vec, c *ode.CheckContext, q int) {
	s.est.Estimate(dst, c.Hist, q, c.T+c.H, c.FProp())
}

// NeedsFProp marks the strategy's estimate as consuming f(T+H, XProp), so
// the lane-planar plan evaluates CheckContext.FProp at the same point of
// the lane's stream the scalar Estimate would.
func (BDF) NeedsFProp() bool { return true }

// ExtraVectors implements Strategy: order q uses q previous solutions
// (x_{n-1} free); f(x_n) lives in the solver's next-first-stage slot.
func (BDF) ExtraVectors(q int) int { return q - 1 }

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
// switches (NoAdapt, CumulativeFPR) promote to DoubleCheck fields.
type DoubleCheck struct {
	Strat Strategy

	control.Policy

	est la.Vec

	Stats Stats

	// Lane-planar capability, probed once by init: kern names the registered
	// control.BatchKernel whose EstimateLanes is bitwise-equivalent to
	// Strat.Estimate ("" keeps planning scalar-side via EstimatePlan.Aux);
	// planF marks that the kernel consumes f(T+H, XProp), which PlanBatch then
	// evaluates through CheckContext.FProp at the same point of the lane's
	// stream the scalar Estimate would.
	kern   string
	planF  bool
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
	if control.HasBatchKernel(d.Strat.Name()) {
		d.kern = d.Strat.Name()
		if f, ok := d.Strat.(interface{ NeedsFProp() bool }); ok {
			d.planF = f.NeedsFProp()
		}
	}
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

// Validate implements ode.Validator with Algorithm 1. The accept/reject
// arithmetic and the order bookkeeping live in internal/control; this method
// wires them to the Strategy's second estimate and keeps the statistics. It
// is composed from the same PlanBatch/FinishBatch phases the lane-planar
// engine runs, with the second estimate and its scaled difference computed
// inline — the one structural guarantee that the scalar oracle and the
// batched path cannot drift.
func (d *DoubleCheck) Validate(c *ode.CheckContext) ode.Verdict {
	var plan ode.EstimatePlan
	if !d.PlanBatch(c, &plan) {
		return plan.Verdict
	}
	est := plan.Aux
	if est == nil {
		d.ensureEst(len(c.XProp))
		d.Strat.Estimate(d.est, c, plan.Q)
		est = d.est
	}
	sErr2 := c.Ctrl.ScaledDiff(c.XProp, est, c.Weights)
	return d.FinishBatch(c, sErr2)
}

func (d *DoubleCheck) ensureEst(m int) {
	if d.est == nil {
		//lint:allow allocfree -- one-time scratch: sized on the first check, reused forever after
		d.est = la.NewVec(m)
	}
}

// PlanBatch implements ode.BatchValidator: the scalar head of Algorithm 1 —
// order reselection, false-positive rescue, the effective-order clamp, and
// the statistics those phases carry. When an estimate is needed it is planned
// rather than computed: strategies with a registered kernel return the kernel
// name (plus f(T+H, XProp) for integration-based ones); strategies without
// one compute the estimate here and hand it over as Aux.
func (d *DoubleCheck) PlanBatch(c *ode.CheckContext, plan *ode.EstimatePlan) bool {
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
		*plan = ode.EstimatePlan{Verdict: ode.VerdictFPRescue}
		return false
	}

	q := d.Strat.EffectiveOrder(c, d.Policy.Order())
	if q < 0 {
		d.Stats.Skipped++
		*plan = ode.EstimatePlan{Verdict: ode.VerdictAccept}
		return false // not enough history yet
	}
	d.Stats.OrderSum += q

	if d.kern == "" {
		// No batched kernel for this strategy: estimate scalar-side.
		d.ensureEst(len(c.XProp))
		d.Strat.Estimate(d.est, c, q)
		*plan = ode.EstimatePlan{Aux: d.est}
		return true
	}
	*plan = ode.EstimatePlan{Kernel: d.kern, Q: q}
	if d.planF {
		plan.F = c.FProp()
	}
	return true
}

// FinishBatch implements ode.BatchValidator: the scalar tail of Algorithm 1,
// judging the batched SErr_2 and advancing the (q, c) policy.
func (d *DoubleCheck) FinishBatch(c *ode.CheckContext, sErr2 float64) ode.Verdict {
	c.ReportCheck(sErr2, d.Policy.Order(), d.Policy.Window())
	if control.DetectorReject(sErr2) {
		d.Policy.NoteReject(c.SErr1)
		d.Stats.Rejections++
		return ode.VerdictReject
	}
	d.Policy.NoteAccept()
	return ode.VerdictAccept
}

// ExtraVectors reports the persistent memory cost (in solution-sized
// vectors) of the detector at its current order, including the estimate
// scratch vector. Compare against the solver's N_k+2 baseline (§VI-B).
func (d *DoubleCheck) ExtraVectors() int {
	d.init()
	return d.Strat.ExtraVectors(d.Policy.Order()) + 1
}
