package pde

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/euler"
	"repro/internal/grid"
	"repro/internal/la"
	"repro/internal/weno"
	"repro/internal/xrand"
)

// sameValue is the bit contract between Eval and referenceEval: finite
// values are equal bit for bit, non-finite ones are in the same class
// (NaN, +Inf or -Inf). NaN payloads and signs are not compared, because
// Go does not specify them and the two differ in where they negate.
func sameValue(a, b float64) bool {
	switch {
	case math.IsNaN(a) || math.IsNaN(b):
		return math.IsNaN(a) && math.IsNaN(b)
	case math.IsInf(a, 0) || math.IsInf(b, 0):
		return math.IsInf(a, 1) == math.IsInf(b, 1) && math.IsInf(a, -1) == math.IsInf(b, -1)
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// refGrids are the grid ranks of the differential test, with unequal axis
// lengths so a swapped axis cannot pass.
var refGrids = []struct {
	name string
	g    *grid.Grid
}{
	{"1d", grid.New1D(13, 1000)},
	{"2d", grid.New2D(7, 9, 1000, 1300)},
	{"3d", grid.New3D(5, 4, 6, 1000, 800, 1200)},
}

// TestEvalMatchesReference holds Eval to the two-pass reference on every
// grid rank × boundary treatment × scheme × parabolic setting (off,
// viscosity only, conduction only, both), on clean seeded states and on
// states carrying NaN and ±Inf, evaluating several states back to back on
// one system.
func TestEvalMatchesReference(t *testing.T) {
	schemes := []string{"weno5", "wenoz5", "crweno5"}
	seed := uint64(0)
	for _, gr := range refGrids {
		for _, bc := range []BC{Periodic, Wall, Outflow} {
			for _, name := range schemes {
				for _, par := range [][2]float64{{0, 0}, {10, 0}, {0, 20}, {10, 20}} {
					label := fmt.Sprintf("%s/bc=%d/%s/nu=%g/kappa=%g", gr.name, bc, name, par[0], par[1])
					scheme, err := weno.ByName(name)
					if err != nil {
						t.Fatal(err)
					}
					s := NewEulerSystem(gr.g, euler.DefaultGas(), scheme)
					s.BCs = [3]BC{bc, bc, bc}
					if par[0] != 0 || par[1] != 0 {
						s.SetParabolic(par[0], par[1])
					}
					seed++
					checkAgainstReference(t, label, s, seed)
				}
			}
		}
	}
}

// checkAgainstReference evaluates s and the reference on a clean state
// and on states with one NaN, +Inf or -Inf, and with a burst of all three.
func checkAgainstReference(t *testing.T, label string, s *EulerSystem, seed uint64) {
	t.Helper()
	r := xrand.New(seed)
	got, want := la.NewVec(s.Dim()), la.NewVec(s.Dim())
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for trial := 0; trial < 5; trial++ {
		x := perturb(s, la.NewVec(s.Dim()), r.Uint64())
		switch {
		case trial >= 1 && trial <= 3:
			x[r.IntN(len(x))] = bad[trial-1]
		case trial == 4:
			for i := 0; i < 6; i++ {
				x[r.IntN(len(x))] = bad[i%3]
			}
		}
		for i := range got {
			got[i] = math.NaN() // Eval must overwrite every component
		}
		s.Eval(0, x, got)
		referenceEval(s, x, want)
		requireSame(t, fmt.Sprintf("%s trial %d: ", label, trial), got, want)
	}
}

// requireSame fails the test at the first component where got breaks
// sameValue with the reference want, prefixing the report with label.
func requireSame(t *testing.T, label string, got, want la.Vec) {
	t.Helper()
	for i := range got {
		if !sameValue(got[i], want[i]) {
			t.Fatalf("%scomponent %d = %v (%#016x), reference %v (%#016x)",
				label, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestEvalAllocationFree pins a warm Eval at zero heap allocations on
// every grid rank with the parabolic terms on: it runs on every stage of
// every step of a PDE campaign.
func TestEvalAllocationFree(t *testing.T) {
	for _, gr := range refGrids {
		for _, scheme := range []weno.Scheme{weno.Weno5{}, &weno.Crweno5{}} {
			s := NewEulerSystem(gr.g, euler.DefaultGas(), scheme)
			s.SetParabolic(10, 20)
			x := perturb(s, la.NewVec(s.Dim()), 1)
			dst := la.NewVec(s.Dim())
			s.Eval(0, x, dst) // warm: grow-once scheme workspaces
			if n := testing.AllocsPerRun(20, func() { s.Eval(0, x, dst) }); n != 0 {
				t.Errorf("%s %s: warm Eval allocates %v times per call", gr.name, scheme.Name(), n)
			}
		}
	}
}
