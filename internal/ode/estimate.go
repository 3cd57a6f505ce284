package ode

import (
	"fmt"
	"math"

	"repro/internal/control"
	"repro/internal/la"
)

// LIPEstimator carries the node and weight workspace of the
// Lagrange-interpolating-polynomial estimate so steady-state double-checking
// allocates nothing per step: the buffers grow once to the largest order
// requested and are reused by every subsequent call. The zero value is ready
// to use. An estimator is not safe for concurrent use; give each worker its
// own.
type LIPEstimator struct {
	nodes, w []float64
}

// Estimate fills dst with the order-q Lagrange-interpolating-polynomial
// extrapolation of the solution at time t from the q+1 most recent accepted
// solutions in hist (§V-A) and returns the order actually used. Order 0 is
// the last value; orders 1 and 2 reproduce the paper's closed-form
// variable-step expressions. It panics if the history holds fewer than q+1
// solutions.
//
// Degenerate histories — step-size underflow can leave t_n == t_{n-1} in
// float, and near-coincident nodes can overflow the barycentric products —
// fall back to the largest order whose node set is pairwise distinct and
// produces finite weights, down to order 0 (the last value), so a poisoned
// ±Inf/NaN second estimate can never masquerade as a detector verdict.
func (e *LIPEstimator) Estimate(dst la.Vec, hist *control.History, q int, t float64) int {
	if q < 0 {
		panic("ode: LIP estimate negative order")
	}
	need := q + 1
	if hist.Len() < need {
		panic(fmt.Sprintf("ode: LIP estimate order %d needs %d history entries, have %d", q, need, hist.Len()))
	}
	if cap(e.nodes) < need {
		//lint:allow allocfree -- grow-once workspace: reused by every later call at this order or below
		e.nodes = make([]float64, need)
		//lint:allow allocfree -- grow-once workspace: reused by every later call at this order or below
		e.w = make([]float64, need)
	}
	nodes := e.nodes[:need]
	for k := 0; k < need; k++ {
		nodes[k] = hist.T(k)
	}
	for qEff := distinctPrefix(nodes) - 1; qEff >= 1; qEff-- {
		w := e.w[:qEff+1]
		la.LagrangeWeightsInto(w, nodes[:qEff+1], t)
		if !finiteAll(w) {
			continue
		}
		// dst = sum_k w_k x_{n-k}, one sweep per node. The first adds its
		// products to 0, so a -0 product becomes +0.
		x0 := hist.X(0)
		if len(x0) != len(dst) {
			panic("ode: LIP estimate length mismatch")
		}
		for c := range dst {
			dst[c] = 0 + w[0]*x0[c]
		}
		for k := 1; k <= qEff; k++ {
			sweep(dst, dst, w[k], hist.X(k))
		}
		return qEff
	}
	dst.CopyFrom(hist.X(0))
	return 0
}

// BDFEstimator carries the node and differentiation-weight workspace of the
// variable-step BDF estimate; like LIPEstimator, the zero value is ready and
// steady-state calls allocate nothing.
type BDFEstimator struct {
	nodes, d, scratch []float64
}

// Estimate fills dst with the order-q variable-step backward differentiation
// formula prediction of the solution at time t (§V-B) and returns the order
// actually used: the value x~ satisfying
//
//	sum_k d_k x_{t_k} = f(t, x_n)
//
// where d are the first-derivative weights at t over the nodes
// {t, t_{n-1}, ..., t_{n-q}} and f is the right-hand side evaluated at the
// solver's proposed solution (reused from FSAL stages when available, so
// the estimate costs no extra evaluation on accepted steps). It panics if
// the history holds fewer than q solutions.
//
// Degenerate node sets (coincident times from step-size underflow, or
// weights that overflow/vanish) fall back to the largest order with pairwise
// distinct nodes, finite weights, and a nonzero leading weight d_0; when not
// even order 1 is sound, the estimate degrades to the last accepted value
// and 0 is returned.
func (e *BDFEstimator) Estimate(dst la.Vec, hist *control.History, q int, t float64, f la.Vec) int {
	if q < 1 {
		panic("ode: BDF estimate order must be >= 1")
	}
	if hist.Len() < q {
		panic(fmt.Sprintf("ode: BDF estimate order %d needs %d history entries, have %d", q, q, hist.Len()))
	}
	need := q + 1
	if cap(e.nodes) < need {
		//lint:allow allocfree -- grow-once workspace: reused by every later call at this order or below
		e.nodes = make([]float64, need)
		//lint:allow allocfree -- grow-once workspace: reused by every later call at this order or below
		e.d = make([]float64, need)
		//lint:allow allocfree -- grow-once workspace: reused by every later call at this order or below
		e.scratch = make([]float64, need)
	}
	nodes := e.nodes[:need]
	nodes[0] = t
	for k := 1; k <= q; k++ {
		nodes[k] = hist.T(k - 1)
	}
	for qEff := distinctPrefix(nodes) - 1; qEff >= 1; qEff-- {
		d := e.d[:qEff+1]
		la.FirstDerivativeWeightsInto(d, e.scratch[:qEff+1], t, nodes[:qEff+1])
		if !finiteAll(d) || d[0] == 0 {
			continue
		}
		// dst = (f - sum_{k>=1} d_k x_{n-k}) / d_0, one sweep per node:
		// the first reads f, and the last scales by 1/d_0 at the store.
		src, inv := f, 1/d[0]
		for k := 1; k < qEff; k++ {
			sweep(dst, src, -d[k], hist.X(k-1))
			src = dst
		}
		x, a := hist.X(qEff-1), -d[qEff]
		if len(src) != len(dst) || len(x) != len(dst) {
			panic("ode: BDF estimate length mismatch")
		}
		for c := range dst {
			dst[c] = (src[c] + a*x[c]) * inv
		}
		return qEff
	}
	dst.CopyFrom(hist.X(0))
	return 0
}

// distinctPrefix returns the length of the longest prefix of nodes whose
// entries are pairwise distinct — the usable node count once step-size
// underflow has collapsed neighbouring history times onto the same float.
func distinctPrefix(nodes []float64) int {
	for k := 1; k < len(nodes); k++ {
		for j := 0; j < k; j++ {
			//lint:allow floatcmp -- bitwise coincidence is the degeneracy being detected: only exactly equal nodes make the weights divide by zero
			if nodes[k] == nodes[j] {
				return k
			}
		}
	}
	return len(nodes)
}

// finiteAll reports whether every weight is finite: near-coincident nodes
// divide by subnormals and overflow to ±Inf without ever tripping the
// repeated-node panic.
func finiteAll(w []float64) bool {
	for _, v := range w {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// MaxLIPOrder returns the largest LIP order supported by the current history
// depth, capped at qMax; -1 when the history is empty.
func MaxLIPOrder(hist *control.History, qMax int) int {
	q := hist.Len() - 1
	if q > qMax {
		q = qMax
	}
	return q
}

// MaxBDFOrder returns the largest BDF order supported by the current history
// depth, capped at qMax; 0 when the history is empty.
func MaxBDFOrder(hist *control.History, qMax int) int {
	q := hist.Len()
	if q > qMax {
		q = qMax
	}
	return q
}
