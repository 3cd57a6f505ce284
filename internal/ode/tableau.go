package ode

import (
	"fmt"

	"repro/internal/control"
)

// The control.Tableau type and its structural methods live in
// internal/control; this file contributes the named pairs of the study.

// HeunEuler returns the Heun-Euler 2(1) pair: the paper's cheapest method
// (N_k = 2) and the one used for Tables III-IV.
func HeunEuler() *control.Tableau {
	return &control.Tableau{
		Name: "heun-euler",
		A: [][]float64{
			{},
			{1},
		},
		B:             []float64{0.5, 0.5},
		BHat:          []float64{1, 0},
		C:             []float64{0, 1},
		Order:         2,
		EmbeddedOrder: 1,
	}
}

// BogackiShampine returns the Bogacki-Shampine 3(2) pair (N_k = 4, FSAL),
// PETSc's TSRK3BS.
func BogackiShampine() *control.Tableau {
	return &control.Tableau{
		Name: "bogacki-shampine",
		A: [][]float64{
			{},
			{1.0 / 2},
			{0, 3.0 / 4},
			{2.0 / 9, 1.0 / 3, 4.0 / 9},
		},
		B:             []float64{2.0 / 9, 1.0 / 3, 4.0 / 9, 0},
		BHat:          []float64{7.0 / 24, 1.0 / 4, 1.0 / 3, 1.0 / 8},
		C:             []float64{0, 1.0 / 2, 3.0 / 4, 1},
		Order:         3,
		EmbeddedOrder: 2,
		FSAL:          true,
	}
}

// DormandPrince returns the Dormand-Prince 5(4) pair (N_k = 7, FSAL),
// PETSc's TSRK5DP and MATLAB's ode45.
func DormandPrince() *control.Tableau {
	return &control.Tableau{
		Name: "dormand-prince",
		A: [][]float64{
			{},
			{1.0 / 5},
			{3.0 / 40, 9.0 / 40},
			{44.0 / 45, -56.0 / 15, 32.0 / 9},
			{19372.0 / 6561, -25360.0 / 2187, 64448.0 / 6561, -212.0 / 729},
			{9017.0 / 3168, -355.0 / 33, 46732.0 / 5247, 49.0 / 176, -5103.0 / 18656},
			{35.0 / 384, 0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84},
		},
		B:             []float64{35.0 / 384, 0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84, 0},
		BHat:          []float64{5179.0 / 57600, 0, 7571.0 / 16695, 393.0 / 640, -92097.0 / 339200, 187.0 / 2100, 1.0 / 40},
		C:             []float64{0, 1.0 / 5, 3.0 / 10, 4.0 / 5, 8.0 / 9, 1, 1},
		Order:         5,
		EmbeddedOrder: 4,
		FSAL:          true,
	}
}

// Fehlberg returns the classic RKF4(5) pair (N_k = 6), propagating the
// fourth-order solution as Fehlberg specified. Included as an extension
// beyond the paper's three methods.
func Fehlberg() *control.Tableau {
	return &control.Tableau{
		Name: "fehlberg",
		A: [][]float64{
			{},
			{1.0 / 4},
			{3.0 / 32, 9.0 / 32},
			{1932.0 / 2197, -7200.0 / 2197, 7296.0 / 2197},
			{439.0 / 216, -8, 3680.0 / 513, -845.0 / 4104},
			{-8.0 / 27, 2, -3544.0 / 2565, 1859.0 / 4104, -11.0 / 40},
		},
		B:             []float64{25.0 / 216, 0, 1408.0 / 2565, 2197.0 / 4104, -1.0 / 5, 0},
		BHat:          []float64{16.0 / 135, 0, 6656.0 / 12825, 28561.0 / 56430, -9.0 / 50, 2.0 / 55},
		C:             []float64{0, 1.0 / 4, 3.0 / 8, 12.0 / 13, 1, 1.0 / 2},
		Order:         4,
		EmbeddedOrder: 5,
	}
}

// CashKarp returns the Cash-Karp 5(4) pair (N_k = 6). Included as an
// extension beyond the paper's three methods.
func CashKarp() *control.Tableau {
	return &control.Tableau{
		Name: "cash-karp",
		A: [][]float64{
			{},
			{1.0 / 5},
			{3.0 / 40, 9.0 / 40},
			{3.0 / 10, -9.0 / 10, 6.0 / 5},
			{-11.0 / 54, 5.0 / 2, -70.0 / 27, 35.0 / 27},
			{1631.0 / 55296, 175.0 / 512, 575.0 / 13824, 44275.0 / 110592, 253.0 / 4096},
		},
		B:             []float64{37.0 / 378, 0, 250.0 / 621, 125.0 / 594, 0, 512.0 / 1771},
		BHat:          []float64{2825.0 / 27648, 0, 18575.0 / 48384, 13525.0 / 55296, 277.0 / 14336, 1.0 / 4},
		C:             []float64{0, 1.0 / 5, 3.0 / 10, 3.0 / 5, 1, 7.0 / 8},
		Order:         5,
		EmbeddedOrder: 4,
	}
}

// Tableaus returns the three embedded pairs evaluated throughout the paper,
// in increasing order of accuracy and cost.
func Tableaus() []*control.Tableau {
	return []*control.Tableau{HeunEuler(), BogackiShampine(), DormandPrince()}
}

// catalogue is every pair shipped by the package, by name, in AllTableaus
// order. Each name is its constructor's Name field.
var catalogue = []struct {
	name  string
	build func() *control.Tableau
}{
	{"heun-euler", HeunEuler},
	{"bogacki-shampine", BogackiShampine},
	{"dormand-prince", DormandPrince},
	{"fehlberg", Fehlberg},
	{"cash-karp", CashKarp},
	{"ssprk3", SSPRK3},
}

// AllTableaus returns every pair shipped by the package, including the
// extensions beyond the paper's three.
func AllTableaus() []*control.Tableau {
	tabs := make([]*control.Tableau, len(catalogue))
	for i, c := range catalogue {
		tabs[i] = c.build()
	}
	return tabs
}

// TableauByName resolves a tableau from its Name field; it returns an error
// for unknown names. Used by the command-line drivers and at every campaign
// set-up, it builds only the pair it returns, a fresh one on each call.
func TableauByName(name string) (*control.Tableau, error) {
	for _, c := range catalogue {
		if c.name == name {
			return c.build(), nil
		}
	}
	return nil, fmt.Errorf("ode: unknown tableau %q", name)
}

// SSPRK3 returns the three-stage strong-stability-preserving Runge-Kutta
// method of Shu & Osher — the classic companion of WENO spatial schemes.
// It has no embedded pair (BHat = B), so it suits a fixed-step integration
// (Integrator.FixedStep); the adaptive controller would see a zero error
// estimate.
func SSPRK3() *control.Tableau {
	return &control.Tableau{
		Name: "ssprk3",
		A: [][]float64{
			{},
			{1},
			{1.0 / 4, 1.0 / 4},
		},
		B:             []float64{1.0 / 6, 1.0 / 6, 2.0 / 3},
		BHat:          []float64{1.0 / 6, 1.0 / 6, 2.0 / 3},
		C:             []float64{0, 1, 1.0 / 2},
		Order:         3,
		EmbeddedOrder: 3,
	}
}
