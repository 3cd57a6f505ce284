package weno

import (
	"encoding/binary"
	"math"
	"testing"
)

// sameValue is the kernels' bit contract with the reference: finite values
// are equal bit for bit, non-finite ones are in the same class (NaN, +Inf
// or -Inf); Go does not specify NaN payloads.
func sameValue(a, b float64) bool {
	switch {
	case math.IsNaN(a) || math.IsNaN(b):
		return math.IsNaN(a) && math.IsNaN(b)
	case math.IsInf(a, 0) || math.IsInf(b, 0):
		return math.IsInf(a, 1) == math.IsInf(b, 1) && math.IsInf(a, -1) == math.IsInf(b, -1)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// FuzzReconstructLeft holds every kernel, and Smoothness, to the
// reference kernels on arbitrary lines: the input's bytes are the line's
// float64 bits, little-endian, so NaN, ±Inf, subnormals, signed zeros and
// values whose squares overflow all reach the kernels. The committed
// corpus (testdata/fuzz) seeds it with smooth, discontinuous and
// non-finite lines.
func FuzzReconstructLeft(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data)/8 - 2*Ghost
		if n < 1 || n > 64 {
			return
		}
		line := make([]float64, n+2*Ghost)
		for i := range line {
			line[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		b0, b1, b2 := Smoothness(line[0], line[1], line[2], line[3], line[4])
		r0, r1, r2 := refSmoothness(line[0], line[1], line[2], line[3], line[4])
		if !sameValue(b0, r0) || !sameValue(b1, r1) || !sameValue(b2, r2) {
			t.Fatalf("Smoothness(%v) = %v %v %v, reference %v %v %v", line[:5], b0, b1, b2, r0, r1, r2)
		}
		for _, k := range []struct {
			name string
			got  func(fhat, f []float64)
			want func(fhat, f []float64)
		}{
			{"weno5", Weno5{}.ReconstructLeft, refWeno5},
			{"wenoz5", WenoZ5{}.ReconstructLeft, refWenoZ5},
			{"crweno5", (&Crweno5{}).ReconstructLeft, func(fhat, f []float64) { refCrweno5(fhat, f, false) }},
			{"crweno5-periodic", (&Crweno5{Periodic: true}).ReconstructLeft, func(fhat, f []float64) { refCrweno5(fhat, f, true) }},
		} {
			got, want := make([]float64, n+1), make([]float64, n+1)
			k.got(got, line)
			k.want(want, line)
			for i := range got {
				if !sameValue(got[i], want[i]) {
					t.Fatalf("%s on %v: interface %d = %v (%#016x), reference %v (%#016x)",
						k.name, line, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
		}
	})
}
