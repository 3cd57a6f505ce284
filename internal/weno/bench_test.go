package weno

import (
	"fmt"
	"math"
	"testing"
)

func benchLine(n int) []float64 {
	f := make([]float64, n+2*Ghost)
	for i := range f {
		f[i] = math.Sin(0.1 * float64(i))
	}
	return f
}

// BenchmarkWeno5 runs the kernel at the bubble's line width (16), the
// Burgers workload's (64) and a long line (256), so the call and Go-tail
// overhead shows at the narrow widths.
func BenchmarkWeno5(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			f := benchLine(n)
			fhat := make([]float64, n+1)
			b.SetBytes(int64(n) * 8)
			for i := 0; i < b.N; i++ {
				Weno5{}.ReconstructLeft(fhat, f)
			}
		})
	}
}

func BenchmarkWenoZ5(b *testing.B) {
	f := benchLine(256)
	fhat := make([]float64, 257)
	for i := 0; i < b.N; i++ {
		WenoZ5{}.ReconstructLeft(fhat, f)
	}
}

func BenchmarkCrweno5(b *testing.B) {
	f := benchLine(256)
	fhat := make([]float64, 257)
	s := &Crweno5{}
	for i := 0; i < b.N; i++ {
		s.ReconstructLeft(fhat, f)
	}
}
