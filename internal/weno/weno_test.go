package weno

import (
	"math"
	"testing"
)

// lineFrom fills a padded periodic line of n interior cells from fn(x) with
// x_i = (i+0.5)/n (cell centers on [0,1]).
func lineFrom(n int, fn func(float64) float64) []float64 {
	f := make([]float64, n+2*Ghost)
	for i := -Ghost; i < n+Ghost; i++ {
		ii := ((i % n) + n) % n
		x := (float64(ii) + 0.5) / float64(n)
		f[i+Ghost] = fn(x)
	}
	return f
}

// derivError measures the max error of the conservative finite-difference
// derivative built from the scheme's interface values against dfn.
func derivError(s Scheme, n int, fn, dfn func(float64) float64) float64 {
	f := lineFrom(n, fn)
	fhat := make([]float64, n+1)
	s.ReconstructLeft(fhat, f)
	dx := 1.0 / float64(n)
	var maxErr float64
	for i := 0; i < n; i++ {
		d := (fhat[i+1] - fhat[i]) / dx
		x := (float64(i) + 0.5) / float64(n)
		if e := math.Abs(d - dfn(x)); e > maxErr {
			maxErr = e
		}
	}
	return maxErr
}

func sin2pi(x float64) float64  { return math.Sin(2 * math.Pi * x) }
func dsin2pi(x float64) float64 { return 2 * math.Pi * math.Cos(2*math.Pi*x) }

func TestWeno5FifthOrder(t *testing.T) {
	e1 := derivError(Weno5{}, 32, sin2pi, dsin2pi)
	e2 := derivError(Weno5{}, 64, sin2pi, dsin2pi)
	order := math.Log2(e1 / e2)
	if order < 4.5 {
		t.Fatalf("WENO5 order %.2f (e1=%g e2=%g), want ~5", order, e1, e2)
	}
}

func TestCrweno5PeriodicFifthOrder(t *testing.T) {
	s := &Crweno5{Periodic: true}
	e1 := derivError(s, 32, sin2pi, dsin2pi)
	e2 := derivError(s, 64, sin2pi, dsin2pi)
	order := math.Log2(e1 / e2)
	if order < 4.4 {
		t.Fatalf("CRWENO5 periodic order %.2f (e1=%g e2=%g), want ~5", order, e1, e2)
	}
}

// interiorDerivError is derivError restricted to cells away from the
// domain boundary, where the non-periodic scheme's WENO5 closures dominate
// the max-norm error.
func interiorDerivError(s Scheme, n int, fn, dfn func(float64) float64) float64 {
	f := lineFrom(n, fn)
	fhat := make([]float64, n+1)
	s.ReconstructLeft(fhat, f)
	dx := 1.0 / float64(n)
	var maxErr float64
	for i := n / 4; i < 3*n/4; i++ {
		d := (fhat[i+1] - fhat[i]) / dx
		x := (float64(i) + 0.5) / float64(n)
		if e := math.Abs(d - dfn(x)); e > maxErr {
			maxErr = e
		}
	}
	return maxErr
}

func TestCrweno5BoundedFifthOrderInterior(t *testing.T) {
	s := &Crweno5{}
	e1 := interiorDerivError(s, 32, sin2pi, dsin2pi)
	e2 := interiorDerivError(s, 64, sin2pi, dsin2pi)
	order := math.Log2(e1 / e2)
	if order < 4.3 {
		t.Fatalf("CRWENO5 interior order %.2f (e1=%g e2=%g), want ~5", order, e1, e2)
	}
	// Whole-line accuracy still at least fourth order with the closures.
	g1 := derivError(s, 32, sin2pi, dsin2pi)
	g2 := derivError(s, 64, sin2pi, dsin2pi)
	if g := math.Log2(g1 / g2); g < 3.5 {
		t.Fatalf("CRWENO5 global order %.2f, want >= 4ish", g)
	}
}

func TestCrwenoMoreAccurateThanWeno(t *testing.T) {
	// The compact scheme's selling point: lower absolute error at the same
	// resolution.
	eW := derivError(Weno5{}, 48, sin2pi, dsin2pi)
	eC := derivError(&Crweno5{Periodic: true}, 48, sin2pi, dsin2pi)
	if eC >= eW {
		t.Fatalf("CRWENO error %g not below WENO error %g", eC, eW)
	}
}

func TestSchemesExactOnConstants(t *testing.T) {
	for _, s := range []Scheme{Weno5{}, &Crweno5{}, &Crweno5{Periodic: true}} {
		f := lineFrom(16, func(x float64) float64 { return 7.25 })
		fhat := make([]float64, 17)
		s.ReconstructLeft(fhat, f)
		for k, v := range fhat {
			if math.Abs(v-7.25) > 1e-12 {
				t.Fatalf("%s: interface %d = %g, want 7.25", s.Name(), k, v)
			}
		}
	}
}

func TestWeno5NonOscillatoryAtJump(t *testing.T) {
	// A step profile must not produce interface values outside [0, 1] by
	// more than a tiny margin (ENO property).
	n := 32
	f := make([]float64, n+2*Ghost)
	for i := range f {
		if i >= n/2+Ghost {
			f[i] = 1
		}
	}
	fhat := make([]float64, n+1)
	Weno5{}.ReconstructLeft(fhat, f)
	for k, v := range fhat {
		if v < -1e-6 || v > 1+1e-6 {
			t.Fatalf("oscillation at interface %d: %g", k, v)
		}
	}
}

func TestCrweno5NonOscillatoryAtJump(t *testing.T) {
	n := 32
	f := make([]float64, n+2*Ghost)
	for i := range f {
		if i >= n/2+Ghost {
			f[i] = 1
		}
	}
	fhat := make([]float64, n+1)
	(&Crweno5{}).ReconstructLeft(fhat, f)
	for k, v := range fhat {
		if v < -0.02 || v > 1.02 {
			t.Fatalf("oscillation at interface %d: %g", k, v)
		}
	}
}

func TestSmoothnessIndicatorsZeroOnLinear(t *testing.T) {
	// Linear data is smooth on all stencils: indicators reduce to the
	// square of the slope terms; for constant data they are zero.
	b0, b1, b2 := Smoothness(3, 3, 3, 3, 3)
	if b0 != 0 || b1 != 0 || b2 != 0 {
		t.Fatalf("constant data indicators: %g %g %g", b0, b1, b2)
	}
	// For linear data all three indicators are equal.
	b0, b1, b2 = Smoothness(1, 2, 3, 4, 5)
	if math.Abs(b0-b1) > 1e-12 || math.Abs(b1-b2) > 1e-12 {
		t.Fatalf("linear data indicators differ: %g %g %g", b0, b1, b2)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"weno5", "crweno5", "crweno5-periodic"} {
		if _, err := ByName(name); err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
	}
	if _, err := ByName("upwind99"); err == nil {
		t.Fatal("expected error")
	}
}

func TestBadLineSizesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Weno5{}.ReconstructLeft(make([]float64, 5), make([]float64, 8))
}

func TestWenoZ5FifthOrder(t *testing.T) {
	e1 := derivError(WenoZ5{}, 32, sin2pi, dsin2pi)
	e2 := derivError(WenoZ5{}, 64, sin2pi, dsin2pi)
	order := math.Log2(e1 / e2)
	if order < 4.5 {
		t.Fatalf("WENO-Z order %.2f (e1=%g e2=%g)", order, e1, e2)
	}
}

func TestWenoZ5BetterAtCriticalPoints(t *testing.T) {
	// Near smooth extrema WENO5's weights drift from optimal; WENO-Z stays
	// closer. Compare errors on a profile with a critical point per cell
	// scale: sin^3 has inflection-rich structure.
	fn := func(x float64) float64 { s := math.Sin(2 * math.Pi * x); return s * s * s }
	dfn := func(x float64) float64 {
		s, c := math.Sin(2*math.Pi*x), math.Cos(2*math.Pi*x)
		return 6 * math.Pi * s * s * c
	}
	eW := derivError(Weno5{}, 64, fn, dfn)
	eZ := derivError(WenoZ5{}, 64, fn, dfn)
	if eZ >= eW {
		t.Fatalf("WENO-Z error %g not below WENO5 error %g at critical points", eZ, eW)
	}
}

func TestWenoZ5NonOscillatoryAtJump(t *testing.T) {
	n := 32
	f := make([]float64, n+2*Ghost)
	for i := range f {
		if i >= n/2+Ghost {
			f[i] = 1
		}
	}
	fhat := make([]float64, n+1)
	WenoZ5{}.ReconstructLeft(fhat, f)
	for k, v := range fhat {
		if v < -1e-4 || v > 1+1e-4 {
			t.Fatalf("oscillation at interface %d: %g", k, v)
		}
	}
}
