package la

import "fmt"

// LU is a dense LU factorization with partial pivoting, the direct-solver
// path for small implicit systems (the Newton matrices of internal/implicit
// when the dimension makes forming the Jacobian cheaper than Krylov
// iteration).
type LU struct {
	n   int
	a   []float64 // factors, row-major
	piv []int
}

// NewLU factors the row-major n-by-n matrix a (which is copied). It returns
// an error on singularity.
func NewLU(a []float64, n int) (*LU, error) {
	if len(a) != n*n {
		panic(fmt.Sprintf("la: NewLU size %d != %d^2", len(a), n))
	}
	lu := &LU{n: n, a: append([]float64(nil), a...), piv: make([]int, n)}
	for i := range lu.piv {
		lu.piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Partial pivot.
		p, pm := k, abs(lu.a[k*n+k])
		for i := k + 1; i < n; i++ {
			if m := abs(lu.a[i*n+k]); m > pm {
				p, pm = i, m
			}
		}
		if pm == 0 {
			return nil, fmt.Errorf("la: LU singular at column %d", k)
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu.a[p*n+j], lu.a[k*n+j] = lu.a[k*n+j], lu.a[p*n+j]
			}
			lu.piv[p], lu.piv[k] = lu.piv[k], lu.piv[p]
		}
		inv := 1 / lu.a[k*n+k]
		for i := k + 1; i < n; i++ {
			l := lu.a[i*n+k] * inv
			lu.a[i*n+k] = l
			for j := k + 1; j < n; j++ {
				lu.a[i*n+j] -= l * lu.a[k*n+j]
			}
		}
	}
	return lu, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Solve overwrites x with A^{-1} b (b and x may alias).
func (lu *LU) Solve(b, x Vec) {
	n := lu.n
	if len(b) != n || len(x) != n {
		panic("la: LU Solve size mismatch")
	}
	// Apply permutation.
	tmp := make([]float64, n)
	for i := 0; i < n; i++ {
		tmp[i] = b[lu.piv[i]]
	}
	// Forward substitution (unit lower).
	for i := 1; i < n; i++ {
		s := tmp[i]
		for j := 0; j < i; j++ {
			s -= lu.a[i*n+j] * tmp[j]
		}
		tmp[i] = s
	}
	// Backward substitution.
	for i := n - 1; i >= 0; i-- {
		s := tmp[i]
		for j := i + 1; j < n; j++ {
			s -= lu.a[i*n+j] * tmp[j]
		}
		tmp[i] = s / lu.a[i*n+i]
	}
	copy(x, tmp)
}
