package la

import (
	"math"
	"testing"
)

// sane bounds the fuzzed node geometry to the regime where the weight
// algorithms are numerically meaningful: finite values of moderate
// magnitude with non-pathological gaps. Outside it the kernels may
// legitimately overflow to ±Inf (the ode estimators detect and reject such
// weights), so only the no-panic invariant and the first-derivative
// kernel's agreement with FornbergWeights apply.
func sane(vals []float64, minGap float64) bool {
	for i, v := range vals {
		if math.IsNaN(v) || math.Abs(v) > 1e6 {
			return false
		}
		for j := 0; j < i; j++ {
			if math.Abs(v-vals[j]) < minGap {
				return false
			}
		}
	}
	return true
}

func distinct(nodes []float64) bool {
	for i := range nodes {
		for j := 0; j < i; j++ {
			if nodes[i] == nodes[j] {
				return false
			}
		}
	}
	return true
}

func finiteVals(vals []float64) bool {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// FuzzLagrangeWeights drives the Lagrange interpolation weights with
// arbitrary node geometries. For any finite pairwise-distinct nodes the
// kernel must not panic; for well-conditioned geometries the weights must be
// finite and sum to 1 (the constant polynomial is reproduced exactly).
func FuzzLagrangeWeights(f *testing.F) {
	f.Add(0.0, 0.5, 1.0, 1.8, 2.2, byte(3))
	f.Add(1.0, 0.5, 0.0, -0.7, 1.5, byte(1))
	f.Add(0.0, 1e-9, 2e-9, 3e-9, 1e-8, byte(2))
	f.Add(-1e5, 0.0, 1e5, 2e5, 3e5, byte(2))
	f.Add(0.25, 0.5, 0.25, 1.0, 2.0, byte(2)) // repeated node: must be skipped, not crash the target
	f.Fuzz(func(t *testing.T, n0, n1, n2, n3, target float64, cnt byte) {
		all := []float64{n0, n1, n2, n3}
		nodes := all[:2+int(cnt%3)]
		if !finiteVals(nodes) || !distinct(nodes) || math.IsNaN(target) {
			return
		}
		dst := make([]float64, len(nodes))
		LagrangeWeightsInto(dst, nodes, target)
		if !sane(nodes, 1e-6) || math.Abs(target) > 1e6 {
			return
		}
		if !finiteVals(dst) {
			t.Fatalf("LagrangeWeightsInto(%v, %g) = %v not finite for well-conditioned nodes", nodes, target, dst)
		}
		var sum, mag float64
		for _, w := range dst {
			sum += w
			mag += math.Abs(w)
		}
		if math.Abs(sum-1) > 1e-9*math.Max(1, mag) {
			t.Fatalf("LagrangeWeightsInto(%v, %g) sum to %g, want 1 (condition %g)", nodes, target, sum, mag)
		}
	})
}

// FuzzFirstDerivativeWeights drives the Fornberg first-derivative weights
// with arbitrary node geometries. The Into form must agree bit for bit with
// the general FornbergWeights recurrence (an independently structured
// implementation) for every non-degenerate input, must never panic on
// distinct nodes, and for well-conditioned geometries the weights must be
// finite and sum to 0 (the derivative of the constant polynomial).
func FuzzFirstDerivativeWeights(f *testing.F) {
	f.Add(1.0, 0.7, 0.4, 0.1, 1.0, byte(3))
	f.Add(0.0, -0.5, 1.5, 2.0, 0.25, byte(2))
	f.Add(0.0, 1e-9, 2e-9, 3e-9, 0.0, byte(2))
	f.Add(-1e5, 0.0, 1e5, 2e5, -1e5, byte(2))
	f.Add(2.0, 2.0, 1.0, 0.0, 2.0, byte(2)) // repeated node: must be skipped, not crash the target
	f.Fuzz(func(t *testing.T, n0, n1, n2, n3, z float64, cnt byte) {
		all := []float64{n0, n1, n2, n3}
		nodes := all[:2+int(cnt%3)]
		if !finiteVals(nodes) || !distinct(nodes) || math.IsNaN(z) {
			return
		}
		dst := make([]float64, len(nodes))
		scratch := make([]float64, len(nodes))
		FirstDerivativeWeightsInto(dst, scratch, z, nodes)
		want := FornbergWeights(z, nodes, 1)[1]
		for i := range want {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("Into weight[%d] = %x, FornbergWeights row %x", i, math.Float64bits(dst[i]), math.Float64bits(want[i]))
			}
		}
		if !sane(nodes, 1e-6) || math.Abs(z) > 1e6 {
			return
		}
		if !finiteVals(dst) {
			t.Fatalf("FirstDerivativeWeightsInto(%g, %v) = %v not finite for well-conditioned nodes", z, nodes, dst)
		}
		var sum, mag float64
		for _, d := range dst {
			sum += d
			mag += math.Abs(d)
		}
		if math.Abs(sum) > 1e-9*math.Max(1, mag) {
			t.Fatalf("FirstDerivativeWeightsInto(%g, %v) sum to %g, want 0 (condition %g)", z, nodes, sum, mag)
		}
	})
}
