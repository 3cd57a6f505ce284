package control

import (
	"fmt"

	"repro/internal/la"
)

// Algorithm 1's constants (§V-C).
const (
	gamma    = 0.05 // lower FPR bound γ (decrease order below it)
	gammaCap = 0.1  // upper FPR bound Γ (increase order above it)
	cMax     = 10   // order reselection period c_max, in checks
)

// Policy is Algorithm 1's (q, c) order-adaptation state machine, extracted
// once from the paper's detector: it selects the order q of the second
// estimate from the observed false-positive rate, reselecting every c_max
// checks and immediately after every false positive, and carries the
// false-positive-rescue bookkeeping (a validator-rejected step recomputed at
// the same step size that reproduces the bit-identical SErr_1 must have been
// clean).
//
// The zero Policy adapts the order with the paper's constants γ = 0.05,
// Γ = 0.1 and c_max = 10. The embedding detector (core.DoubleCheck) owns
// the statistics; Policy methods return what changed so the caller can
// count.
type Policy struct {
	NoAdapt bool // disable Algorithm 1's order adaptation (ablation)

	qMin, qMax int // inclusive order bounds, fixed at Init
	q          int // current order
	inited     bool
	c          int // checks since the last order selection
	fpWin      int // false positives since the last order selection
	lastSErr   float64
	haveLast   bool
}

// Init fixes the order bounds. It is idempotent; every other method calls
// through it.
func (p *Policy) Init(qMin, qMax int) {
	if p.inited {
		return
	}
	p.inited = true
	p.qMin, p.qMax = qMin, qMax
	p.q = qMin
	if p.q < 1 {
		p.q = 1 // start LIP at linear extrapolation; order 0 is far too sharp
	}
}

// Order returns the order currently selected by Algorithm 1.
func (p *Policy) Order() int { return p.q }

// Window returns c, the number of checks since the last order selection.
func (p *Policy) Window() int { return p.c }

// SetOrder overrides the current order (used by ablations and tests).
func (p *Policy) SetOrder(q int) {
	if q < p.qMin || q > p.qMax {
		panic(fmt.Sprintf("control: order %d outside [%d, %d]", q, p.qMin, p.qMax))
	}
	p.q = q
}

// BeginCheck opens one validation: it advances the window counter c, and
// performs the periodic order reselection when the window reaches c_max. It
// reports whether the order changed.
func (p *Policy) BeginCheck() (orderChanged bool) {
	p.c++
	if p.c >= cMax {
		return p.updateOrder()
	}
	return false
}

// Rescue applies the false-positive self-detection rule: a recomputation of
// a step this policy's detector rejected that reproduces the bit-identical
// scaled error must have been clean. On a rescue the false positive is
// counted in the window and the order is reselected immediately.
func (p *Policy) Rescue(sErr1 float64, recomputation bool) (rescued, orderChanged bool) {
	if !p.haveLast || !recomputation || !la.ExactEq(sErr1, p.lastSErr) {
		return false, false
	}
	p.haveLast = false
	p.fpWin++
	return true, p.updateOrder()
}

// NoteReject latches the rejected trial's classic scaled error, arming the
// rescue test for the recomputation.
func (p *Policy) NoteReject(sErr1 float64) {
	p.lastSErr = sErr1
	p.haveLast = true
}

// NoteAccept disarms the rescue latch after an accepted check. (A check
// skipped for lack of history deliberately leaves the latch armed.)
func (p *Policy) NoteAccept() { p.haveLast = false }

// updateOrder applies Algorithm 1's selection rule: an FPR below γ means
// the check can afford more sensitivity (lower order); an FPR above Γ
// means too many false positives, so the order rises and the estimate
// tracks the solution more closely. Combined with immediate reselection on
// every false positive, the windowed rate bounds the steady-state FPR near
// 1/(c_max + 1/p) where p is the over-sensitive order's FP probability.
// Algorithm 1 prints the cumulative ratio FP_q/N_steps instead, which winds
// up at the over-sensitive order (EXPERIMENTS.md: 20% FPR against 9.6%).
func (p *Policy) updateOrder() (changed bool) {
	win := p.c
	fpWin := p.fpWin
	p.c = 0
	p.fpWin = 0
	if p.NoAdapt {
		return false
	}
	var fpr float64
	if win > 0 {
		fpr = float64(fpWin) / float64(win)
	}
	newQ := p.q
	if fpr < gamma {
		newQ = max(p.qMin, p.q-1)
	} else if fpr > gammaCap {
		newQ = min(p.qMax, p.q+1)
	}
	if newQ != p.q {
		p.q = newQ
		return true
	}
	return false
}
