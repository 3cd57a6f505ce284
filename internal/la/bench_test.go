package la

import "testing"

func benchVec(n int) (Vec, Vec, Vec) {
	a, b, w := NewVec(n), NewVec(n), NewVec(n)
	for i := 0; i < n; i++ {
		a[i] = float64(i%13) * 0.1
		b[i] = float64(i%7) * 0.2
		w[i] = 1e-6 * (1 + a[i])
	}
	return a, b, w
}

func BenchmarkAXPY(b *testing.B) {
	x, y, _ := benchVec(1 << 14)
	b.SetBytes(8 << 14)
	for i := 0; i < b.N; i++ {
		x.AXPY(1.0000001, y)
	}
}

func BenchmarkWRMS(b *testing.B) {
	e, _, w := benchVec(1 << 14)
	for i := 0; i < b.N; i++ {
		_ = WRMS(e, w)
	}
}

func BenchmarkTridiagSolve(b *testing.B) {
	n := 1 << 12
	a := make([]float64, n)
	bb := make([]float64, n)
	c := make([]float64, n)
	d := make([]float64, n)
	scratch := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i], bb[i], c[i] = 1, 4, 1
		d[i] = float64(i % 5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(scratch, d) // keep d stable
		TridiagSolve(a, bb, c, scratch, make([]float64, n))
	}
}

func BenchmarkFornbergWeights(b *testing.B) {
	nodes := []float64{0, 0.1, 0.25, 0.37}
	for i := 0; i < b.N; i++ {
		_ = FornbergWeights(0.37, nodes, 1)[1]
	}
}

func BenchmarkLagrangeWeightsInto(b *testing.B) {
	nodes := []float64{0, 0.1, 0.25, 0.37}
	dst := make([]float64, len(nodes))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		LagrangeWeightsInto(dst, nodes, 0.5)
	}
}

func BenchmarkFirstDerivativeWeightsInto(b *testing.B) {
	nodes := []float64{0, 0.1, 0.25, 0.37}
	dst := make([]float64, len(nodes))
	scratch := make([]float64, len(nodes))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FirstDerivativeWeightsInto(dst, scratch, 0.37, nodes)
	}
}
