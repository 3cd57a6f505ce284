package la

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	s := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*math.Max(1, s)
}

func TestNewVecZeroed(t *testing.T) {
	v := NewVec(5)
	for i, x := range v {
		if x != 0 {
			t.Fatalf("component %d = %g, want 0", i, x)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	v := Vec{1, 2, 3}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Fatalf("Clone aliases original: v[0] = %g", v[0])
	}
}

func TestCopyFrom(t *testing.T) {
	v := NewVec(3)
	v.CopyFrom(Vec{4, 5, 6})
	if v[2] != 6 {
		t.Fatalf("CopyFrom failed: %v", v)
	}
}

func TestCopyFromMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	NewVec(2).CopyFrom(Vec{1, 2, 3})
}

func TestAXPY(t *testing.T) {
	v := Vec{1, 2, 3}
	v.AXPY(2, Vec{10, 20, 30})
	want := Vec{21, 42, 63}
	for i := range v {
		if v[i] != want[i] {
			t.Fatalf("AXPY: got %v want %v", v, want)
		}
	}
}

func TestScaleFillZero(t *testing.T) {
	v := Vec{1, 2}
	v.Scale(3)
	if v[1] != 6 {
		t.Fatalf("Scale: %v", v)
	}
	v.Fill(7)
	if v[0] != 7 || v[1] != 7 {
		t.Fatalf("Fill: %v", v)
	}
	v.Zero()
	if v[0] != 0 || v[1] != 0 {
		t.Fatalf("Zero: %v", v)
	}
}

func TestDotAndNorms(t *testing.T) {
	v := Vec{3, 4}
	if v.Dot(v) != 25 {
		t.Fatalf("Dot = %g", v.Dot(v))
	}
	if v.Norm2() != 5 {
		t.Fatalf("Norm2 = %g", v.Norm2())
	}
	if v.NormInf() != 4 {
		t.Fatalf("NormInf = %g", v.NormInf())
	}
}

func TestMaxAbsIndex(t *testing.T) {
	if got := (Vec{1, -9, 3}).MaxAbsIndex(); got != 1 {
		t.Fatalf("MaxAbsIndex = %d, want 1", got)
	}
	if got := (Vec{}).MaxAbsIndex(); got != -1 {
		t.Fatalf("MaxAbsIndex empty = %d, want -1", got)
	}
}

func TestHasNaNOrInf(t *testing.T) {
	if (Vec{1, 2}).HasNaNOrInf() {
		t.Fatal("finite vector flagged")
	}
	if !(Vec{1, math.NaN()}).HasNaNOrInf() {
		t.Fatal("NaN not flagged")
	}
	if !(Vec{math.Inf(-1)}).HasNaNOrInf() {
		t.Fatal("-Inf not flagged")
	}
}

// Property: AXPY with a followed by AXPY with -a restores the vector
// (exactly, since both paths compute the same rounded products).
func TestAXPYInverseProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b9))
		n := 1 + rng.IntN(64)
		v := NewVec(n)
		x := NewVec(n)
		for i := range v {
			v[i] = rng.NormFloat64()
			x[i] = rng.NormFloat64()
		}
		orig := v.Clone()
		a := rng.NormFloat64()
		v.AXPY(a, x)
		v.AXPY(-a, x)
		for i := range v {
			if !almostEq(v[i], orig[i], 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Cauchy-Schwarz |<v,x>| <= ||v|| ||x||.
func TestCauchySchwarzProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 77))
		n := 1 + rng.IntN(32)
		v, x := NewVec(n), NewVec(n)
		for i := range v {
			v[i] = rng.NormFloat64()
			x[i] = rng.NormFloat64()
		}
		return math.Abs(v.Dot(x)) <= v.Norm2()*x.Norm2()*(1+1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: norm ordering NormInf <= Norm2 <= sqrt(n)*NormInf for any vector.
func TestNormOrderingProperty(t *testing.T) {
	f := func(vals []float64) bool {
		v := Vec(vals)
		for i := range v {
			if math.IsNaN(v[i]) || math.Abs(v[i]) > 1e150 {
				return true // skip non-finite inputs and the squaring-overflow regime
			}
		}
		tol := 1 + 1e-12
		return v.NormInf() <= v.Norm2()*tol && v.Norm2() <= math.Sqrt(float64(len(v)))*v.NormInf()*tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
