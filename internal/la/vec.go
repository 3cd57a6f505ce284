// Package la provides the small dense linear-algebra kernels used throughout
// the solver: contiguous float64 vectors, BLAS-level-1 operations, weighted
// root-mean-square norms (the PETSc-style scaled error norm), tridiagonal
// solves for compact finite-difference schemes, and interpolation /
// differentiation weight generation (Lagrange and Fornberg) for the
// variable-step extrapolation and BDF formulas.
//
// Everything operates on plain []float64 so callers can alias into larger
// state buffers without copies.
package la

import (
	"fmt"
	"math"
)

// Vec is a dense vector of float64. It is a named slice type so helper
// methods read naturally, but it converts freely to and from []float64.
type Vec []float64

// NewVec returns a zeroed vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a fresh copy of v.
func (v Vec) Clone() Vec {
	w := make(Vec, len(v))
	copy(w, v)
	return w
}

// CopyFrom copies src into v. The lengths must match.
func (v Vec) CopyFrom(src Vec) {
	if len(v) != len(src) {
		panic(fmt.Sprintf("la: CopyFrom length mismatch %d != %d", len(v), len(src)))
	}
	copy(v, src)
}

// Zero sets every component of v to 0.
func (v Vec) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Fill sets every component of v to a.
func (v Vec) Fill(a float64) {
	for i := range v {
		v[i] = a
	}
}

// Scale multiplies v by a in place.
func (v Vec) Scale(a float64) {
	for i := range v {
		v[i] *= a
	}
}

// AXPY computes v += a*x in place.
func (v Vec) AXPY(a float64, x Vec) {
	if len(v) != len(x) {
		panic(fmt.Sprintf("la: AXPY length mismatch %d != %d", len(v), len(x)))
	}
	for i := range v {
		v[i] += a * x[i]
	}
}

// Add computes v += x in place.
func (v Vec) Add(x Vec) { v.AXPY(1, x) }

// Sub computes v -= x in place.
func (v Vec) Sub(x Vec) { v.AXPY(-1, x) }

// Dot returns the inner product of v and x.
func (v Vec) Dot(x Vec) float64 {
	if len(v) != len(x) {
		panic("la: Dot length mismatch")
	}
	var s float64
	for i := range v {
		s += v[i] * x[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func (v Vec) Norm2() float64 {
	var s float64
	for i := range v {
		s += v[i] * v[i]
	}
	return math.Sqrt(s)
}

// NormInf returns the maximum absolute component of v.
func (v Vec) NormInf() float64 {
	var m float64
	for i := range v {
		if a := math.Abs(v[i]); a > m {
			m = a
		}
	}
	return m
}

// MaxAbsIndex returns the index of the component with the largest magnitude,
// or -1 for an empty vector.
func (v Vec) MaxAbsIndex() int {
	idx, m := -1, -1.0
	for i := range v {
		if a := math.Abs(v[i]); a > m {
			m, idx = a, i
		}
	}
	return idx
}

// HasNaNOrInf reports whether any component is NaN or ±Inf.
func (v Vec) HasNaNOrInf() bool {
	for i := range v {
		if math.IsNaN(v[i]) || math.IsInf(v[i], 0) {
			return true
		}
	}
	return false
}
