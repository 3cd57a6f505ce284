package core

import (
	"math"

	"repro/internal/la"
	"repro/internal/ode"
)

// Replication is the generic state-of-the-art detector the paper compares
// against (§VII-A): the whole step is computed a second time and the two
// results are compared; any disagreement rejects the step. Memory and
// computation both cost at least +100%.
//
// The replica passes no stage hook, so it runs without injection, matching
// the paper's idealization of replication as detecting all nonsystematic
// SDCs with no false positives: two clean executions are bit-identical, so
// any mismatch proves corruption.
type Replication struct {
	Sys ode.System

	stepper *ode.Stepper
	Stats   Stats
}

// NewReplication returns a replication validator for the given pair/system.
func NewReplication(tab *ode.Tableau, sys ode.System) *Replication {
	return &Replication{Sys: sys, stepper: ode.NewStepper(tab, sys)}
}

// Validate implements ode.Validator by recomputing the step cleanly and
// comparing both the solution and the error estimate bit-for-bit (a
// corrupted FSAL stage can leave the solution untouched while poisoning
// the estimate and the next step's reused first stage, so both must match).
func (r *Replication) Validate(c *ode.CheckContext) ode.Verdict {
	r.Stats.Checks++
	if r.stepper == nil {
		r.stepper = ode.NewStepper(c.Tab, r.Sys)
	}
	res := r.stepper.Trial(c.T, c.H, c.XStored, nil, nil)
	for i := range res.XProp {
		if !la.ExactEq(res.XProp[i], c.XProp[i]) || !la.ExactEq(res.ErrVec[i], c.ErrVec[i]) {
			r.Stats.Rejections++
			return ode.VerdictReject
		}
	}
	return ode.VerdictAccept
}

// ExtraVectors reports replication's memory cost: a full second copy of the
// solver state, N_k+2 vectors (+100%).
func (r *Replication) ExtraVectors(tab *ode.Tableau) int { return tab.Stages() + 2 }

// TMR is triple modular redundancy (§VII-A): the step is computed three
// times and majority voting both detects and corrects a corrupted result,
// at a cost of +200%. When the primary disagrees with two agreeing
// replicas, TMR overwrites the proposed solution with the replica value
// and accepts.
type TMR struct {
	Sys ode.System

	stepper *ode.Stepper
	buf     la.Vec
	Stats   Stats
	// Corrections counts steps whose result was replaced by the majority.
	Corrections int
}

// NewTMR returns a TMR validator.
func NewTMR(tab *ode.Tableau, sys ode.System) *TMR {
	return &TMR{Sys: sys, stepper: ode.NewStepper(tab, sys)}
}

// Validate implements ode.Validator with majority voting across the primary
// and two clean replicas. (Two clean replicas always agree, so the majority
// always exists; the structure mirrors real TMR, where replicas fail
// independently.) Both replicas come from one stepper, whose record the
// second Trial overwrites, so the first replica's proposal is copied out.
func (t *TMR) Validate(c *ode.CheckContext) ode.Verdict {
	t.Stats.Checks++
	if t.stepper == nil {
		t.stepper = ode.NewStepper(c.Tab, t.Sys)
	}
	r1 := t.stepper.Trial(c.T, c.H, c.XStored, nil, nil)
	if t.buf == nil {
		//lint:allow allocfree -- grow-once replica buffer: sized on the first check, reused forever after
		t.buf = la.NewVec(len(c.XProp))
	}
	t.buf.CopyFrom(r1.XProp)
	r2 := t.stepper.Trial(c.T, c.H, c.XStored, nil, nil)
	primaryOK := true
	for i := range c.XProp {
		if !la.ExactEq(c.XProp[i], t.buf[i]) {
			primaryOK = false
			break
		}
	}
	if primaryOK {
		return ode.VerdictAccept
	}
	// Replicas agree with each other (clean); correct the primary in place.
	replicasAgree := true
	for i := range t.buf {
		if !la.ExactEq(t.buf[i], r2.XProp[i]) {
			replicasAgree = false
			break
		}
	}
	if replicasAgree {
		c.XProp.CopyFrom(t.buf)
		t.Corrections++
		t.Stats.Rejections++ // counted as a detection even though corrected
		return ode.VerdictAccept
	}
	t.Stats.Rejections++
	return ode.VerdictReject
}

// ExtraVectors reports TMR's +200% memory cost.
func (t *TMR) ExtraVectors(tab *ode.Tableau) int { return 2 * (tab.Stages() + 2) }

// AID's settings, the original detector's defaults.
const (
	aidTheta         = 1e-3 // user error bound θ as a fraction of the value range
	aidBestFitPeriod = 5    // best-fit reselection period, the paper's p
	aidWindow        = 20   // sliding window for the normal-error level
)

// AID is the adaptive impact-driven detector of Di & Cappello (§VII-C),
// designed for fixed-step time-stepping codes. The surrogate is the
// difference between the new solution and an extrapolation of previous
// solutions (last value, linear, or quadratic); the best-fitting
// extrapolation is reselected every aidBestFitPeriod steps; the threshold
// is (1+eta)*(eps + θ*r) where eta grows with observed false positives,
// eps tracks the recent extrapolation error, and r is the value range.
type AID struct {
	method   int          // 0 = last value, 1 = linear, 2 = quadratic
	recent   [3][]float64 // recent extrapolation errors per method (ring)
	rpos     int
	eta      float64
	step     int
	est      la.Vec
	ones     la.Vec
	lip      ode.LIPEstimator
	lastDiff float64
	haveLast bool
	Stats    Stats
}

// epsFor returns the recent maximum extrapolation error of a method — the
// epsilon of the impact-driven threshold. A sliding window keeps the
// detector sensitive after transients, where an all-time maximum would
// permanently desensitize it.
func (a *AID) epsFor(m int) float64 {
	var mx float64
	for _, v := range a.recent[m] {
		if v > mx {
			mx = v
		}
	}
	return mx
}

// record stores an accepted step's extrapolation error for the method.
func (a *AID) record(m int, diff float64) {
	if len(a.recent[m]) < aidWindow {
		a.recent[m] = append(a.recent[m], diff)
		return
	}
	a.recent[m][a.rpos%aidWindow] = diff
	if m == a.method {
		a.rpos++
	}
}

// NewAID returns an AID detector with the original defaults.
func NewAID() *AID { return &AID{} }

func (a *AID) extrapolate(dst la.Vec, hist *ode.History, method int, t float64) bool {
	if hist.Len() < method+1 {
		return false
	}
	a.lip.Estimate(dst, hist, method, t)
	return true
}

// ValidateFixed implements ode.FixedValidator. Following Di & Cappello's
// per-data-point formulation, every component is predicted individually and
// the step is rejected as soon as any point's deviation exceeds the
// impact-driven threshold (1+eta)(eps + θ*r); eps is the recent maximum
// per-point prediction error and r the global value range. A proposal with
// a NaN or infinite component is rejected outright: the ordered deviation
// test skips NaN components, and a NaN value range makes the threshold NaN.
func (a *AID) ValidateFixed(c *ode.FixedCheckContext) bool {
	a.Stats.Checks++
	if c.XProp.HasNaNOrInf() {
		a.Stats.Rejections++
		return false
	}
	a.step++
	if a.est == nil {
		a.est = la.NewVec(len(c.XProp))
		a.ones = la.NewVec(len(c.XProp))
		a.ones.Fill(1)
	}
	if !a.extrapolate(a.est, c.Hist, a.method, c.T+c.H) {
		a.Stats.Skipped++
		return true
	}
	// Per-point maximum deviation |x_i - x~_i| and the point attaining it.
	diff := 0.0
	for i := range c.XProp {
		if d := math.Abs(c.XProp[i] - a.est[i]); d > diff {
			diff = d
		}
	}
	// Value range r of the current solution.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range c.XProp {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	r := hi - lo
	if r == 0 {
		r = math.Abs(hi)
	}
	eps := a.epsFor(a.method)
	thr := (1 + a.eta) * (eps + aidTheta*r)
	reject := eps > 0 && diff > thr
	if reject {
		// A recomputation reproducing the same surrogate marks a false
		// positive; relax the threshold.
		if a.haveLast && c.Recomputation && la.ExactEq(diff, a.lastDiff) {
			a.eta += 0.5
			a.haveLast = false
			a.Stats.FPRescues++
			reject = false
		} else {
			a.lastDiff = diff
			a.haveLast = true
		}
	}
	if !reject {
		// Learn the normal extrapolation error and rescore the methods.
		a.record(a.method, diff)
		if a.step%aidBestFitPeriod == 0 {
			a.bestFit(c)
		}
		a.haveLast = false
		return true
	}
	a.Stats.Rejections++
	return false
}

// bestFit picks the extrapolation method with the smallest current error.
func (a *AID) bestFit(c *ode.FixedCheckContext) {
	best, bestErr := a.method, math.Inf(1)
	for m := 0; m <= 2; m++ {
		if !a.extrapolate(a.est, c.Hist, m, c.T+c.H) {
			continue
		}
		e := la.WMaxDiff(c.XProp, a.est, a.ones)
		if e < bestErr {
			best, bestErr = m, e
		}
	}
	if best != a.method {
		a.method = best
		a.Stats.OrderChanges++
	}
}

// hotRodeMultiple is Hot Rode's threshold as a multiple of the calibration
// maximum.
const hotRodeMultiple = 10

// HotRode is the fixed-solver detector of the authors' previous work [11]:
// the surrogate is the difference between two error estimates (the embedded
// estimate and a linear-extrapolation estimate); the threshold is
// calibrated from the first five samples and inflated multiplicatively on
// each detected false positive.
type HotRode struct {
	samples  int
	calMax   float64
	fpCount  int // detected false positives inflate the threshold as (1+eta)
	est      la.Vec
	diff     la.Vec
	lip      ode.LIPEstimator
	lastS    float64
	haveLast bool
	Stats    Stats
}

// threshold returns the current acceptance threshold
// hotRodeMultiple * calMax * (1 + eta), eta the false-positive count — the
// feedback rule of the original detector.
func (h *HotRode) threshold() float64 {
	return hotRodeMultiple * (h.calMax + 1e-300) * float64(1+h.fpCount)
}

// NewHotRode returns a Hot Rode detector with default calibration.
func NewHotRode() *HotRode { return &HotRode{} }

// ValidateFixed implements ode.FixedValidator. A proposal with a NaN or
// infinite component is rejected outright, since the infinity norm of the
// surrogate skips NaN components.
func (h *HotRode) ValidateFixed(c *ode.FixedCheckContext) bool {
	h.Stats.Checks++
	if c.XProp.HasNaNOrInf() {
		h.Stats.Rejections++
		return false
	}
	if c.Hist.Len() < 2 {
		h.Stats.Skipped++
		return true
	}
	if h.est == nil {
		h.est = la.NewVec(len(c.XProp))
		h.diff = la.NewVec(len(c.XProp))
	}
	// Second error estimate: linear extrapolation residual.
	h.lip.Estimate(h.est, c.Hist, 1, c.T+c.H)
	h.diff.CopyFrom(c.XProp)
	h.diff.Sub(h.est)
	// Surrogate: the vector difference of the two error estimates,
	// || lte2 - lte1 ||_inf — a corruption shifts the solution-tracking
	// estimate and the stage-difference estimate differently, so their
	// pointwise difference exposes it even when the norms agree.
	h.diff.Sub(c.ErrVec)
	s := h.diff.NormInf()
	h.samples++
	if h.samples <= 5 {
		if s > h.calMax {
			h.calMax = s
		}
		return true
	}
	if s > h.threshold() {
		if h.haveLast && c.Recomputation && la.ExactEq(s, h.lastS) {
			// Same surrogate after recomputation: false positive; inflate
			// the threshold additively, as the original detector does.
			h.fpCount++
			h.haveLast = false
			h.Stats.FPRescues++
			return true
		}
		h.lastS = s
		h.haveLast = true
		h.Stats.Rejections++
		return false
	}
	h.haveLast = false
	return true
}

// richardsonFactor is Richardson's acceptance multiple of the tolerance.
const richardsonFactor = 2

// Richardson is the redundant-computation check of Chen et al. (§VII-B):
// the step is recomputed as two half-steps and the difference from the
// full-step result, scaled like the controller's error, must stay within
// richardsonFactor of the tolerance. It costs roughly +100% computation
// but needs no history.
type Richardson struct {
	Sys ode.System

	stepper *ode.Stepper
	mid     la.Vec
	Stats   Stats
}

// NewRichardson returns a Richardson-extrapolation validator.
func NewRichardson(tab *ode.Tableau, sys ode.System) *Richardson {
	return &Richardson{Sys: sys, stepper: ode.NewStepper(tab, sys)}
}

// Validate implements ode.Validator. Like DoubleCheck it is composed from
// the PlanBatch/FinishBatch phases the lane-planar engine runs, with the
// scaled difference computed inline.
func (r *Richardson) Validate(c *ode.CheckContext) ode.Verdict {
	var plan ode.EstimatePlan
	r.PlanBatch(c, &plan)
	sErr := c.Ctrl.ScaledDiff(c.XProp, plan.Aux, c.Weights)
	return r.FinishBatch(c, sErr)
}

// PlanBatch implements ode.BatchValidator. Richardson's "estimate" is the
// two half-step recomputation, which no cross-lane kernel can amortize, so
// the plan always hands it over as Aux (a view into the validator-owned
// stepper, valid until the next Trial — i.e. through the batched SErr_2
// pass, since each lane owns its validator).
func (r *Richardson) PlanBatch(c *ode.CheckContext, plan *ode.EstimatePlan) bool {
	r.Stats.Checks++
	if r.stepper == nil {
		r.stepper = ode.NewStepper(c.Tab, r.Sys)
	}
	if r.mid == nil {
		//lint:allow allocfree -- grow-once midpoint buffer: sized on the first check, reused forever after
		r.mid = la.NewVec(len(c.XProp))
	}
	// Both half-steps come from one stepper, whose record the second Trial
	// overwrites, so the midpoint is copied out first.
	half := c.H / 2
	res1 := r.stepper.Trial(c.T, half, c.XStored, nil, nil)
	r.mid.CopyFrom(res1.XProp)
	res2 := r.stepper.Trial(c.T+half, half, r.mid, nil, nil)
	*plan = ode.EstimatePlan{Aux: res2.XProp}
	return true
}

// FinishBatch implements ode.BatchValidator: judge the (batched) scaled
// difference against the acceptance factor. A NaN difference rejects, as
// in control.DetectorReject.
func (r *Richardson) FinishBatch(c *ode.CheckContext, sErr2 float64) ode.Verdict {
	c.ReportCheck(sErr2, -1, -1)
	if math.IsNaN(sErr2) || sErr2 > richardsonFactor {
		r.Stats.Rejections++
		return ode.VerdictReject
	}
	return ode.VerdictAccept
}
