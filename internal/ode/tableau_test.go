package ode

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/control"
	"repro/internal/la"
)

func TestTableausValidate(t *testing.T) {
	for _, tab := range AllTableaus() {
		if err := tab.Validate(); err != nil {
			t.Errorf("%s: %v", tab.Name, err)
		}
	}
}

func TestTableauStageCountsMatchPaper(t *testing.T) {
	// §IV: N_k = 2 (Heun-Euler), 4 (Bogacki-Shampine), 7 (Dormand-Prince).
	for _, tc := range []struct {
		tab  *control.Tableau
		want int
	}{
		{HeunEuler(), 2},
		{BogackiShampine(), 4},
		{DormandPrince(), 7},
	} {
		if got := tc.tab.Stages(); got != tc.want {
			t.Errorf("%s stages = %d, want %d", tc.tab.Name, got, tc.want)
		}
	}
}

func TestControlOrder(t *testing.T) {
	for _, tc := range []struct {
		tab  *control.Tableau
		want int
	}{
		{HeunEuler(), 2},       // p^ = 1
		{BogackiShampine(), 3}, // p^ = 2
		{DormandPrince(), 5},   // p^ = 4
		{Fehlberg(), 5},        // p^ = 4
		{CashKarp(), 5},        // p^ = 4
	} {
		if got := tc.tab.ControlOrder(); got != tc.want {
			t.Errorf("%s ControlOrder = %d, want %d", tc.tab.Name, got, tc.want)
		}
	}
}

// orderConditions checks the classic rooted-tree order conditions up to
// order 3 for a weight vector b over the tableau structure.
func orderConditions(tab *control.Tableau, b []float64, order int) []float64 {
	s := tab.Stages()
	var res []float64
	// Order 1: sum b = 1.
	sum := 0.0
	for i := 0; i < s; i++ {
		sum += b[i]
	}
	res = append(res, sum-1)
	if order < 2 {
		return res
	}
	// Order 2: sum b_i c_i = 1/2.
	sum = 0
	for i := 0; i < s; i++ {
		sum += b[i] * tab.C[i]
	}
	res = append(res, sum-0.5)
	if order < 3 {
		return res
	}
	// Order 3: sum b_i c_i^2 = 1/3 and sum b_i a_ij c_j = 1/6.
	sum = 0
	for i := 0; i < s; i++ {
		sum += b[i] * tab.C[i] * tab.C[i]
	}
	res = append(res, sum-1.0/3)
	sum = 0
	for i := 0; i < s; i++ {
		for j, a := range tab.A[i] {
			sum += b[i] * a * tab.C[j]
		}
	}
	res = append(res, sum-1.0/6)
	return res
}

func TestOrderConditions(t *testing.T) {
	for _, tab := range AllTableaus() {
		for _, side := range []struct {
			name  string
			b     []float64
			order int
		}{
			{"propagated", tab.B, tab.Order},
			{"embedded", tab.BHat, tab.EmbeddedOrder},
		} {
			o := side.order
			if o > 3 {
				o = 3 // higher orders verified empirically in convergence tests
			}
			for k, r := range orderConditions(tab, side.b, o) {
				if math.Abs(r) > 1e-12 {
					t.Errorf("%s %s: order condition %d residual %g", tab.Name, side.name, k, r)
				}
			}
		}
	}
}

func TestFSALStructure(t *testing.T) {
	for _, tab := range AllTableaus() {
		if !tab.FSAL {
			continue
		}
		s := tab.Stages()
		if tab.C[s-1] != 1 {
			t.Errorf("%s: FSAL last abscissa = %g, want 1", tab.Name, tab.C[s-1])
		}
		if tab.B[s-1] != 0 {
			t.Errorf("%s: FSAL last propagated weight = %g, want 0", tab.Name, tab.B[s-1])
		}
		for j, a := range tab.A[s-1] {
			if math.Abs(a-tab.B[j]) > 1e-14 {
				t.Errorf("%s: FSAL A[last][%d] = %g != B[%d] = %g", tab.Name, j, a, j, tab.B[j])
			}
		}
	}
}

func TestTableauByName(t *testing.T) {
	tab, err := TableauByName("dormand-prince")
	if err != nil || tab.Stages() != 7 {
		t.Fatalf("TableauByName failed: %v %v", tab, err)
	}
	if _, err := TableauByName("nope"); err == nil {
		t.Fatal("expected error for unknown tableau")
	}
	// Every shipped pair resolves by its name to an equal tableau, a fresh
	// one on each call: callers compare tableau pointers and may mutate
	// their copy.
	for _, want := range AllTableaus() {
		a, err := TableauByName(want.Name)
		if err != nil {
			t.Fatalf("%s: %v", want.Name, err)
		}
		b, _ := TableauByName(want.Name)
		if !reflect.DeepEqual(a, want) {
			t.Errorf("TableauByName(%q) = %+v, want %+v", want.Name, a, want)
		}
		if a == b {
			t.Errorf("TableauByName(%q) returned the same pointer twice", want.Name)
		}
	}
}

// tableauSink keeps the constructed tableaus of the allocation test alive.
var tableauSink *control.Tableau

// TestTableauByNameBuildsOnePair: resolving a name costs no more
// allocations than constructing that one pair, not the whole catalogue.
func TestTableauByNameBuildsOnePair(t *testing.T) {
	one := testing.AllocsPerRun(100, func() { tableauSink = HeunEuler() })
	got := testing.AllocsPerRun(100, func() { tableauSink, _ = TableauByName("heun-euler") })
	if got > one {
		t.Fatalf("TableauByName(\"heun-euler\") allocates %v times, HeunEuler() %v", got, one)
	}
}

func TestValidateCatchesBadTableau(t *testing.T) {
	bad := HeunEuler()
	bad.C[1] = 0.5 // row sum no longer matches c
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted inconsistent tableau")
	}
	bad2 := HeunEuler()
	bad2.B[0] = 0.7 // weights no longer sum to 1
	if err := bad2.Validate(); err == nil {
		t.Fatal("Validate accepted bad weights")
	}
}

func TestSSPRK3ThirdOrderAndTVD(t *testing.T) {
	tab := SSPRK3()
	if err := tab.Validate(); err != nil {
		t.Fatal(err)
	}
	e1 := fixedStepError(tab, 64)
	e2 := fixedStepError(tab, 128)
	if got := math.Log2(e1 / e2); math.Abs(got-3) > 0.3 {
		t.Fatalf("SSPRK3 empirical order %.2f", got)
	}
	// The convex (Shu-Osher) structure: all A entries and B weights
	// nonnegative — the property behind strong stability preservation.
	for _, row := range tab.A {
		for _, a := range row {
			if a < 0 {
				t.Fatal("negative stage coefficient")
			}
		}
	}
	for _, b := range tab.B {
		if b < 0 {
			t.Fatal("negative weight")
		}
	}
}

func TestSSPRK3FixedIntegration(t *testing.T) {
	in := &Integrator{Tab: SSPRK3(), FixedStep: true}
	in.Init(oscillator, 0, 1, la.Vec{1, 0}, 0.01)
	for i := 0; i < 100; i++ {
		if err := in.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if e := math.Hypot(in.X()[0]-math.Cos(1), in.X()[1]+math.Sin(1)); e > 1e-6 {
		t.Fatalf("SSPRK3 fixed error %g", e)
	}
}
