package la

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestLUIdentity(t *testing.T) {
	a := []float64{1, 0, 0, 0, 1, 0, 0, 0, 1}
	lu, err := NewLU(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	b := Vec{3, 1, 4}
	x := NewVec(3)
	lu.Solve(b, x)
	for i := range b {
		if x[i] != b[i] {
			t.Fatalf("identity solve: %v", x)
		}
	}
}

func TestLUKnownSystem(t *testing.T) {
	// Requires pivoting: zero in the (0,0) position.
	a := []float64{0, 2, 1, 3}
	lu, err := NewLU(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A x = b with x = (1, 2): b = (4, 7).
	x := NewVec(2)
	lu.Solve(Vec{4, 7}, x)
	if math.Abs(x[0]-1) > 1e-12 || math.Abs(x[1]-2) > 1e-12 {
		t.Fatalf("x = %v", x)
	}
}

func TestLUSingular(t *testing.T) {
	if _, err := NewLU([]float64{1, 2, 2, 4}, 2); err == nil {
		t.Fatal("expected singularity error")
	}
}

func TestLUSolveAliasing(t *testing.T) {
	lu, err := NewLU([]float64{2, 0, 0, 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	b := Vec{2, 8}
	lu.Solve(b, b)
	if b[0] != 1 || b[1] != 2 {
		t.Fatalf("aliased solve: %v", b)
	}
}

// Property: random diagonally dominant systems round-trip.
func TestLURoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 17))
		n := 1 + rng.IntN(20)
		a := make([]float64, n*n)
		for i := 0; i < n; i++ {
			var row float64
			for j := 0; j < n; j++ {
				if i != j {
					a[i*n+j] = rng.NormFloat64()
					row += math.Abs(a[i*n+j])
				}
			}
			a[i*n+i] = row + 1 + rng.Float64()
		}
		want := NewVec(n)
		for i := range want {
			want[i] = rng.NormFloat64()
		}
		b := NewVec(n)
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < n; j++ {
				s += a[i*n+j] * want[j]
			}
			b[i] = s
		}
		lu, err := NewLU(a, n)
		if err != nil {
			return false
		}
		x := NewVec(n)
		lu.Solve(b, x)
		for i := range x {
			if !almostEq(x[i], want[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
