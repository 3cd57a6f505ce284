package xrand

import (
	"math"
	"math/bits"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/64 identical outputs from different seeds", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(0)
	c2 := parent.Split(1)
	for i := 0; i < 64; i++ {
		if c1.Uint64() == c2.Uint64() {
			t.Fatalf("split streams collided at draw %d", i)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(13)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("uniform mean = %g, want ~0.5", mean)
	}
}

func TestIntNBoundsAndCoverage(t *testing.T) {
	r := New(17)
	seen := make([]int, 10)
	for i := 0; i < 10000; i++ {
		v := r.IntN(10)
		if v < 0 || v >= 10 {
			t.Fatalf("IntN out of range: %d", v)
		}
		seen[v]++
	}
	for v, c := range seen {
		if c == 0 {
			t.Fatalf("value %d never drawn in 10000 tries", v)
		}
	}
}

func TestIntNPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).IntN(0)
}

func TestBernoulliEdges(t *testing.T) {
	r := New(23)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(29)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.01) {
			hits++
		}
	}
	rate := float64(hits) / n
	if rate < 0.007 || rate > 0.013 {
		t.Fatalf("Bernoulli(0.01) empirical rate %g", rate)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(31)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		x := r.Norm()
		sum += x
		sumsq += x * x
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean = %g", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance = %g", variance)
	}
}

func TestMul64MatchesBits(t *testing.T) {
	f := func(a, b uint64) bool {
		hi, lo := mul64(a, b)
		whi, wlo := bits.Mul64(a, b)
		return hi == whi && lo == wlo
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUint64BitBalance(t *testing.T) {
	// Each bit position should be set roughly half the time.
	r := New(41)
	const n = 20000
	counts := make([]int, 64)
	for i := 0; i < n; i++ {
		v := r.Uint64()
		for b := 0; b < 64; b++ {
			if v&(1<<uint(b)) != 0 {
				counts[b]++
			}
		}
	}
	for b, c := range counts {
		frac := float64(c) / n
		if frac < 0.45 || frac > 0.55 {
			t.Fatalf("bit %d set fraction %g", b, frac)
		}
	}
}

func TestJumpDisjointStreams(t *testing.T) {
	r := New(99)
	pre := r.Jump()
	// pre continues the original stream; r is 2^128 draws ahead.
	seen := map[uint64]bool{}
	for i := 0; i < 256; i++ {
		seen[pre.Uint64()] = true
	}
	for i := 0; i < 256; i++ {
		if seen[r.Uint64()] {
			t.Fatal("jumped stream collided with the original")
		}
	}
}

func TestJumpDeterministic(t *testing.T) {
	a, b := New(5), New(5)
	a.Jump()
	b.Jump()
	for i := 0; i < 50; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("jump not deterministic")
		}
	}
}
