// Package weno implements the two spatial reconstruction schemes of the
// paper's HyPar use case: the fifth-order WENO scheme of Jiang & Shu and
// the fifth-order compact CRWENO scheme of Ghosh & Baeder (which requires a
// tridiagonal solve per line). Both operate on 1-D lines of cell/node
// values padded with ghost cells; multi-dimensional solvers sweep the
// kernels dimension by dimension.
//
// The kernels compute left-biased interface values f̂_{i+1/2}; right-biased
// reconstruction mirrors the line. Conservative flux differencing with
// Rusanov (local Lax-Friedrichs) splitting lives in the pde package.
package weno

import (
	"fmt"

	"repro/internal/la"
)

// Ghost is the number of ghost cells each scheme needs on each side of a
// line.
const Ghost = 3

// Eps is the regularization constant in the nonlinear weights.
const Eps = 1e-6

// Scheme reconstructs left-biased interface values along a padded line.
type Scheme interface {
	Name() string
	// ReconstructLeft fills fhat[k] with the left-biased reconstruction of
	// the interface between cells k-1 and k of the interior, given f of
	// length n + 2*Ghost (interior length n, fhat length n+1). Interior
	// cell i lives at f[i+Ghost]; interface k at x_{k-1/2} uses upwind
	// cells ..., k-2, k-1 (plus downwind support).
	ReconstructLeft(fhat, f []float64)
}

// The Jiang-Shu smoothness indicator of a three-cell candidate stencil is
// a curvature term plus a slope term. The curvature term 13/12 (a-2b+c)^2
// depends only on the stencil's cells, so the window at interface k+1
// reuses two of the three computed at interface k; the slope term depends
// on the candidate's place in the window (left, centre or right).

// curvature returns 13/12 (a - 2b + c)^2.
func curvature(a, b, c float64) float64 {
	d := a - 2*b + c
	return 13.0 / 12.0 * d * d
}

// slopeLeft returns 1/4 (a - 4b + 3c)^2, the left candidate's slope term.
func slopeLeft(a, b, c float64) float64 {
	d := a - 4*b + 3*c
	return 0.25 * d * d
}

// slopeMid returns 1/4 (a - c)^2, the centre candidate's slope term.
func slopeMid(a, c float64) float64 {
	d := a - c
	return 0.25 * d * d
}

// slopeRight returns 1/4 (3a - 4b + c)^2, the right candidate's slope term.
func slopeRight(a, b, c float64) float64 {
	d := 3*a - 4*b + c
	return 0.25 * d * d
}

// Smoothness computes the Jiang-Shu smoothness indicators for the 5-point
// stencil centered at cell values (m2, m1, c, p1, p2); exported for the
// distributed compact-scheme assembly in internal/dist.
func Smoothness(m2, m1, c, p1, p2 float64) (b0, b1, b2 float64) {
	return curvature(m2, m1, c) + slopeLeft(m2, m1, c),
		curvature(m1, c, p1) + slopeMid(m1, p1),
		curvature(c, p1, p2) + slopeRight(c, p1, p2)
}

// Weno5 is the classic fifth-order WENO scheme (Jiang & Shu 1996).
type Weno5 struct{}

// Name implements Scheme.
func (Weno5) Name() string { return "weno5" }

// ReconstructLeft implements Scheme.
func (Weno5) ReconstructLeft(fhat, f []float64) {
	n := len(f) - 2*Ghost
	if n < 1 || len(fhat) != n+1 {
		panic(fmt.Sprintf("weno: bad line sizes: len(f)=%d len(fhat)=%d", len(f), len(fhat)))
	}
	// Interface k sits between interior cells k-1 and k; the upwind (left)
	// cell is j = k-1+Ghost in padded coordinates, so iteration k reads
	// f[k..k+4] and shares four of the five cells with iteration k+1. The
	// window slides one cell per iteration, one load instead of five, and
	// carries the curvature terms k0, k1 of its left and centre candidates
	// over from the previous position: one curvature term per interface
	// instead of three, each computed by the same operations as in
	// Smoothness, so the results are Smoothness's bit for bit.
	//
	// On amd64, weno5Pairs runs this loop two interfaces at a time and
	// leaves at most the last one; this loop finishes from where it
	// stopped, restarting the window there.
	k := weno5Pairs(fhat, f)
	_ = f[n+4] // hoist the loop's bounds check
	m2, m1, c, p1 := f[k], f[k+1], f[k+2], f[k+3]
	k0, k1 := curvature(m2, m1, c), curvature(m1, c, p1)
	for ; k <= n; k++ {
		p2 := f[k+4]
		k2 := curvature(c, p1, p2)
		b0 := k0 + slopeLeft(m2, m1, c)
		b1 := k1 + slopeMid(m1, p1)
		b2 := k2 + slopeRight(c, p1, p2)
		a0 := 0.1 / ((Eps + b0) * (Eps + b0))
		a1 := 0.6 / ((Eps + b1) * (Eps + b1))
		a2 := 0.3 / ((Eps + b2) * (Eps + b2))
		s := a0 + a1 + a2
		w0, w1, w2 := a0/s, a1/s, a2/s
		q0 := (2*m2 - 7*m1 + 11*c) / 6
		q1 := (-m1 + 5*c + 2*p1) / 6
		q2 := (2*c + 5*p1 - p2) / 6
		fhat[k] = w0*q0 + w1*q1 + w2*q2
		m2, m1, c, p1 = m1, c, p1, p2
		k0, k1 = k1, k2
	}
}

// Crweno5 is the fifth-order compact-reconstruction WENO scheme of Ghosh &
// Baeder (2012). The nonlinear weights combine three second-order compact
// candidates into a tridiagonal system for the interface values; boundary
// interfaces close with the standard WENO5 reconstruction, as HyPar does
// for non-periodic lines.
type Crweno5 struct {
	// Periodic solves the cyclic tridiagonal system instead of using WENO5
	// boundary closures.
	Periodic bool

	al, ad, au, rhs, scratch []float64
}

// Name implements Scheme.
func (c *Crweno5) Name() string { return "crweno5" }

// ReconstructLeft implements Scheme.
func (c *Crweno5) ReconstructLeft(fhat, f []float64) {
	n := len(f) - 2*Ghost
	if n < 1 || len(fhat) != n+1 {
		panic(fmt.Sprintf("weno: bad line sizes: len(f)=%d len(fhat)=%d", len(f), len(fhat)))
	}
	m := n + 1
	if cap(c.al) < m {
		c.al = make([]float64, m)        //lint:allow allocfree -- grow-once workspace: sized to the largest line seen, reused after
		c.ad = make([]float64, m)        //lint:allow allocfree -- grow-once workspace: sized to the largest line seen, reused after
		c.au = make([]float64, m)        //lint:allow allocfree -- grow-once workspace: sized to the largest line seen, reused after
		c.rhs = make([]float64, m)       //lint:allow allocfree -- grow-once workspace: sized to the largest line seen, reused after
		c.scratch = make([]float64, 3*m) //lint:allow allocfree -- grow-once workspace: sized to the largest line seen, reused after
	}
	al, ad, au, rhs := c.al[:m], c.ad[:m], c.au[:m], c.rhs[:m]

	var w5 Weno5
	// Sliding five-cell window with carried curvature terms, as in
	// Weno5.ReconstructLeft.
	_ = f[n+4] // hoist the loop's bounds check
	m2, m1, cc, p1 := f[0], f[1], f[2], f[3]
	k0, k1 := curvature(m2, m1, cc), curvature(m1, cc, p1)
	for k := 0; k <= n; k++ {
		p2 := f[k+4]
		k2 := curvature(cc, p1, p2)
		b0 := k0 + slopeLeft(m2, m1, cc)
		b1 := k1 + slopeMid(m1, p1)
		b2 := k2 + slopeRight(cc, p1, p2)
		// Optimal compact weights c = (2/10, 5/10, 3/10).
		a0 := 0.2 / ((Eps + b0) * (Eps + b0))
		a1 := 0.5 / ((Eps + b1) * (Eps + b1))
		a2 := 0.3 / ((Eps + b2) * (Eps + b2))
		s := a0 + a1 + a2
		w0, w1, w2 := a0/s, a1/s, a2/s
		// LHS: (2w0+w1)/3 fhat_{k-1} + ((w0+2(w1+w2))/3) fhat_k + (w2/3) fhat_{k+1}
		al[k] = (2*w0 + w1) / 3
		ad[k] = (w0 + 2*(w1+w2)) / 3
		au[k] = w2 / 3
		// RHS: (w0/6) f_{k-2} + ((5(w0+w1)+w2)/6) f_{k-1} + ((w1+5w2)/6) f_k
		rhs[k] = w0/6*m1 + (5*(w0+w1)+w2)/6*cc + (w1+5*w2)/6*p1
		m2, m1, cc, p1 = m1, cc, p1, p2
		k0, k1 = k1, k2
	}
	if c.Periodic {
		// Interfaces 0 and n are the same point; solve the cyclic system
		// over interfaces 0..n-1 and copy.
		a2, d2, u2, r2 := al[:n], ad[:n], au[:n], rhs[:n]
		la.TridiagSolveCyclic(a2, d2, u2, r2, c.scratch)
		copy(fhat[:n], r2)
		fhat[n] = fhat[0]
		return
	}
	// WENO5 closures at the first and last interfaces: identity rows.
	// The Weno5 kernel runs on a 1-cell interior whose padded support are
	// the cells around the target interface.
	closure := func(k int) float64 {
		j := k - 1 + Ghost // upwind cell of interface k in padded coords
		var mini [1 + 2*Ghost]float64
		// The kernel's stencil only touches j-2..j+2; the outermost pad
		// cells of mini are never read.
		copy(mini[1:2*Ghost], f[j-Ghost+1:j+Ghost])
		var out [2]float64
		w5.ReconstructLeft(out[:], mini[:])
		return out[1]
	}
	fhat0 := closure(0)
	fhatN := closure(n)
	al[0], ad[0], au[0], rhs[0] = 0, 1, 0, fhat0
	al[n], ad[n], au[n], rhs[n] = 0, 1, 0, fhatN
	la.TridiagSolve(al, ad, au, rhs, c.scratch)
	copy(fhat, rhs)
}

// ByName returns the scheme named "weno5", "wenoz5", or "crweno5"
// (optionally "crweno5-periodic").
func ByName(name string) (Scheme, error) {
	switch name {
	case "weno5":
		return Weno5{}, nil
	case "wenoz5":
		return WenoZ5{}, nil
	case "crweno5":
		return &Crweno5{}, nil
	case "crweno5-periodic":
		return &Crweno5{Periodic: true}, nil
	}
	return nil, fmt.Errorf("weno: unknown scheme %q", name)
}

// WenoZ5 is the fifth-order WENO-Z scheme (Borges, Carmona, Costa & Don
// 2008): the classic WENO5 with global-smoothness-rescaled weights
// alpha_k = d_k (1 + (tau5/(beta_k+eps))^2), tau5 = |beta0-beta2|. It keeps
// the formal fifth order at smooth extrema where WENO5 degenerates, at the
// same stencil cost. Included as a scheme-diversity extension beyond the
// paper's WENO5/CRWENO5.
type WenoZ5 struct{}

// Name implements Scheme.
func (WenoZ5) Name() string { return "wenoz5" }

// ReconstructLeft implements Scheme.
func (WenoZ5) ReconstructLeft(fhat, f []float64) {
	n := len(f) - 2*Ghost
	if n < 1 || len(fhat) != n+1 {
		panic(fmt.Sprintf("weno: bad line sizes: len(f)=%d len(fhat)=%d", len(f), len(fhat)))
	}
	// Sliding five-cell window with carried curvature terms, as in
	// Weno5.ReconstructLeft.
	_ = f[n+4] // hoist the loop's bounds check
	m2, m1, c, p1 := f[0], f[1], f[2], f[3]
	k0, k1 := curvature(m2, m1, c), curvature(m1, c, p1)
	for k := 0; k <= n; k++ {
		p2 := f[k+4]
		k2 := curvature(c, p1, p2)
		b0 := k0 + slopeLeft(m2, m1, c)
		b1 := k1 + slopeMid(m1, p1)
		b2 := k2 + slopeRight(c, p1, p2)
		tau := b0 - b2
		if tau < 0 {
			tau = -tau
		}
		r0 := tau / (b0 + Eps)
		r1 := tau / (b1 + Eps)
		r2 := tau / (b2 + Eps)
		a0 := 0.1 * (1 + r0*r0)
		a1 := 0.6 * (1 + r1*r1)
		a2 := 0.3 * (1 + r2*r2)
		s := a0 + a1 + a2
		w0, w1, w2 := a0/s, a1/s, a2/s
		q0 := (2*m2 - 7*m1 + 11*c) / 6
		q1 := (-m1 + 5*c + 2*p1) / 6
		q2 := (2*c + 5*p1 - p2) / 6
		fhat[k] = w0*q0 + w1*q1 + w2*q2
		m2, m1, c, p1 = m1, c, p1, p2
		k0, k1 = k1, k2
	}
}
