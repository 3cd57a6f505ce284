package la

import "fmt"

// LagrangeWeightsInto fills dst (len(dst) == len(nodes)) with the Lagrange
// interpolation weights l_k such that
//
//	p(t) = sum_k l_k * y_k
//
// where p is the unique polynomial through the nodes (nodes[k], y_k),
// evaluated at t. Used by the LIP-based double-checking (LBDC) to
// extrapolate the solution at t_n from previous accepted solutions at
// variable step sizes; the paper's order-0/1/2 formulas (§V-A) are the
// q+1 = 1, 2, 3 node instances of this. Steady-state double-checking calls
// it through a reused workspace (ode.LIPEstimator) so accepted steps
// allocate nothing.
func LagrangeWeightsInto(dst, nodes []float64, t float64) {
	n := len(nodes)
	if len(dst) != n {
		panic(fmt.Sprintf("la: LagrangeWeightsInto dst length %d != %d nodes", len(dst), n))
	}
	for k := 0; k < n; k++ {
		lk := 1.0
		for j := 0; j < n; j++ {
			if j == k {
				continue
			}
			den := nodes[k] - nodes[j]
			if den == 0 {
				panic(fmt.Sprintf("la: LagrangeWeightsInto repeated node %g", nodes[k]))
			}
			lk *= (t - nodes[j]) / den
		}
		dst[k] = lk
	}
}

// FornbergWeights returns finite-difference weights for derivatives
// 0..maxDeriv at the point z from the given nodes, using Fornberg's
// algorithm (Math. Comp. 51, 1988). The result c has shape
// [maxDeriv+1][len(nodes)]: c[m][k] is the weight of the value at nodes[k]
// in the approximation of the m-th derivative at z. The approximation is
// exact for polynomials of degree < len(nodes).
//
// The variable-step BDF formulas of the integration-based double-checking
// (IBDC, §V-B) fall out of the m = 1 row with z = t_n and nodes
// t_n, t_{n-1}, ..., t_{n-q}; unit tests check agreement with the paper's
// closed-form BDF1/2/3 coefficients.
func FornbergWeights(z float64, nodes []float64, maxDeriv int) [][]float64 {
	n := len(nodes)
	if n == 0 {
		panic("la: FornbergWeights needs at least one node")
	}
	if maxDeriv < 0 {
		panic("la: FornbergWeights negative derivative order")
	}
	if maxDeriv >= n {
		panic(fmt.Sprintf("la: FornbergWeights needs > %d nodes for derivative %d", maxDeriv, maxDeriv))
	}
	c := make([][]float64, maxDeriv+1)
	for m := range c {
		c[m] = make([]float64, n)
	}
	c1 := 1.0
	c4 := nodes[0] - z
	c[0][0] = 1.0
	for i := 1; i < n; i++ {
		mn := i
		if mn > maxDeriv {
			mn = maxDeriv
		}
		c2 := 1.0
		c5 := c4
		c4 = nodes[i] - z
		for j := 0; j < i; j++ {
			c3 := nodes[i] - nodes[j]
			if c3 == 0 {
				panic("la: FornbergWeights repeated node")
			}
			c2 *= c3
			if j == i-1 {
				for k := mn; k >= 1; k-- {
					c[k][i] = c1 * (float64(k)*c[k-1][i-1] - c5*c[k][i-1]) / c2
				}
				c[0][i] = -c1 * c5 * c[0][i-1] / c2
			}
			for k := mn; k >= 1; k-- {
				c[k][j] = (c4*c[k][j] - float64(k)*c[k-1][j]) / c3
			}
			c[0][j] = c4 * c[0][j] / c3
		}
		c1 = c2
	}
	return c
}

// FirstDerivativeWeightsInto fills dst with the first-derivative row of
// FornbergWeights at z and uses scratch for the value-interpolation
// (zeroth-derivative) row of Fornberg's recurrence, allocating nothing. Both
// dst and scratch must have len(nodes). The computed weights are
// bit-identical to FornbergWeights(z, nodes, 1)[1]: the floating-point
// operations are the maxDeriv = 1 instance of FornbergWeights in the same
// order.
func FirstDerivativeWeightsInto(dst, scratch []float64, z float64, nodes []float64) {
	n := len(nodes)
	if n < 2 {
		panic(fmt.Sprintf("la: FirstDerivativeWeightsInto needs > 1 nodes, have %d", n))
	}
	if len(dst) != n || len(scratch) != n {
		panic(fmt.Sprintf("la: FirstDerivativeWeightsInto buffer lengths (%d, %d) != %d nodes", len(dst), len(scratch), n))
	}
	c0, c1 := scratch, dst
	for k := 0; k < n; k++ {
		c0[k], c1[k] = 0, 0
	}
	w1 := 1.0
	c4 := nodes[0] - z
	c0[0] = 1.0
	for i := 1; i < n; i++ {
		w2 := 1.0
		c5 := c4
		c4 = nodes[i] - z
		for j := 0; j < i; j++ {
			c3 := nodes[i] - nodes[j]
			if c3 == 0 {
				panic("la: FornbergWeights repeated node")
			}
			w2 *= c3
			if j == i-1 {
				c1[i] = w1 * (c0[i-1] - c5*c1[i-1]) / w2
				c0[i] = -w1 * c5 * c0[i-1] / w2
			}
			c1[j] = (c4*c1[j] - c0[j]) / c3
			c0[j] = c4 * c0[j] / c3
		}
		w1 = w2
	}
}
