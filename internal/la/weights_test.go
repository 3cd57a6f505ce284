package la

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestLagrangeWeightsSumToOne(t *testing.T) {
	nodes := []float64{0, 0.7, 1.5, 2.1}
	w := make([]float64, len(nodes))
	LagrangeWeightsInto(w, nodes, 3.3)
	var s float64
	for _, wk := range w {
		s += wk
	}
	if !almostEq(s, 1, 1e-13) {
		t.Fatalf("weights sum to %g, want 1", s)
	}
}

// The paper's order-1 LIP formula (§V-A):
// x~_n = x_{n-1}(h_n+h_{n-1})/h_{n-1} - x_{n-2} h_n/h_{n-1}.
func TestLagrangeWeightsMatchPaperOrder1(t *testing.T) {
	hn, hn1 := 0.3, 0.2 // h_n, h_{n-1}
	tn := 1.0
	tn1 := tn - hn
	tn2 := tn1 - hn1
	w := make([]float64, 2)
	LagrangeWeightsInto(w, []float64{tn1, tn2}, tn)
	want0 := (hn + hn1) / hn1
	want1 := -hn / hn1
	if !almostEq(w[0], want0, 1e-13) || !almostEq(w[1], want1, 1e-13) {
		t.Fatalf("order-1 LIP weights = %v, want [%g %g]", w, want0, want1)
	}
}

// The paper's order-2 LIP formula coefficients.
func TestLagrangeWeightsMatchPaperOrder2(t *testing.T) {
	hn, hn1, hn2 := 0.25, 0.4, 0.15
	tn := 2.0
	tn1 := tn - hn
	tn2 := tn1 - hn1
	tn3 := tn2 - hn2
	w := make([]float64, 3)
	LagrangeWeightsInto(w, []float64{tn1, tn2, tn3}, tn)
	// Coefficient of x_{n-1}: (h_n+h_{n-1})(h_n+h_{n-1}+h_{n-2}) / (h_{n-1}(h_{n-1}+h_{n-2}))
	// (The paper's printed denominator h_{n-2}(h_{n-2}+h_{n-1}) is a typo: the
	// Lagrange denominator for the node t_{n-1} is (t_{n-1}-t_{n-2})(t_{n-1}-t_{n-3}).)
	want0 := (hn + hn1) * (hn + hn1 + hn2) / (hn1 * (hn1 + hn2))
	want1 := -hn * (hn + hn1 + hn2) / (hn1 * hn2)
	want2 := hn * (hn + hn1) / (hn2 * (hn1 + hn2))
	for i, want := range []float64{want0, want1, want2} {
		if !almostEq(w[i], want, 1e-12) {
			t.Fatalf("order-2 LIP weight[%d] = %g, want %g", i, w[i], want)
		}
	}
}

// Property: Lagrange extrapolation is exact on polynomials of degree < #nodes.
func TestLagrangeExactOnPolynomialsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 21))
		deg := rng.IntN(4)
		coef := make([]float64, deg+1)
		for i := range coef {
			coef[i] = rng.NormFloat64()
		}
		p := func(x float64) float64 {
			v := 0.0
			for i := deg; i >= 0; i-- {
				v = v*x + coef[i]
			}
			return v
		}
		nodes := make([]float64, deg+1)
		x0 := rng.Float64()
		for i := range nodes {
			x0 += 0.1 + rng.Float64()
			nodes[i] = x0
		}
		target := x0 + 0.5 + rng.Float64()
		w := make([]float64, len(nodes))
		LagrangeWeightsInto(w, nodes, target)
		var got float64
		for k, wk := range w {
			got += wk * p(nodes[k])
		}
		return almostEq(got, p(target), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFornbergFirstDerivativeUniform(t *testing.T) {
	// Central difference on {-1, 0, 1} at 0: weights [-1/2, 0, 1/2].
	w := FornbergWeights(0, []float64{-1, 0, 1}, 1)[1]
	want := []float64{-0.5, 0, 0.5}
	for i := range w {
		if !almostEq(w[i], want[i], 1e-13) {
			t.Fatalf("weights = %v, want %v", w, want)
		}
	}
}

// Variable-step BDF2 closed form: with omega = h_n/h_{n-1}, the first
// derivative at t_n from nodes {t_n, t_{n-1}, t_{n-2}} satisfies
// x_n = (1+w)^2/(1+2w) x_{n-1} - w^2/(1+2w) x_{n-2} + h_n (1+w)/(1+2w) x'(t_n).
func TestFornbergMatchesVariableBDF2(t *testing.T) {
	hn, hn1 := 0.3, 0.5
	om := hn / hn1
	tn := 4.0
	nodes := []float64{tn, tn - hn, tn - hn - hn1}
	d := FornbergWeights(tn, nodes, 1)[1]
	beta := 1 / d[0] // coefficient of f(x_n)
	a1 := -d[1] / d[0]
	a2 := -d[2] / d[0]
	wantBeta := hn * (1 + om) / (1 + 2*om)
	wantA1 := (1 + om) * (1 + om) / (1 + 2*om)
	wantA2 := -om * om / (1 + 2*om)
	if !almostEq(beta, wantBeta, 1e-12) {
		t.Fatalf("beta = %g, want %g", beta, wantBeta)
	}
	if !almostEq(a1, wantA1, 1e-12) {
		t.Fatalf("a1 = %g, want %g", a1, wantA1)
	}
	if !almostEq(a2, wantA2, 1e-12) {
		t.Fatalf("a2 = %g, want %g", a2, wantA2)
	}
}

func TestFornbergMatchesBDF1(t *testing.T) {
	// BDF1 (backward Euler): x_n = x_{n-1} + h f(x_n).
	h := 0.7
	d := FornbergWeights(1.0, []float64{1.0, 1.0 - h}, 1)[1]
	if !almostEq(1/d[0], h, 1e-13) || !almostEq(-d[1]/d[0], 1, 1e-13) {
		t.Fatalf("BDF1 weights wrong: %v", d)
	}
}

// Property: first-derivative weights are exact on polynomials of degree < #nodes.
func TestFornbergExactOnPolynomialsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 33))
		n := 2 + rng.IntN(4) // 2..5 nodes
		coef := make([]float64, n)
		for i := range coef {
			coef[i] = rng.NormFloat64()
		}
		p := func(x float64) float64 {
			v := 0.0
			for i := n - 1; i >= 0; i-- {
				v = v*x + coef[i]
			}
			return v
		}
		dp := func(x float64) float64 {
			v := 0.0
			for i := n - 1; i >= 1; i-- {
				v = v*x + float64(i)*coef[i]
			}
			return v
		}
		nodes := make([]float64, n)
		x0 := rng.Float64()
		for i := range nodes {
			nodes[i] = x0
			x0 += 0.1 + rng.Float64()
		}
		z := nodes[n-1] // differentiate at the last node (the BDF pattern)
		w := FornbergWeights(z, nodes, 1)[1]
		var got float64
		for k := range nodes {
			got += w[k] * p(nodes[k])
		}
		return almostEq(got, dp(z), 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFornbergPanicsOnBadInput(t *testing.T) {
	for name, fn := range map[string]func(){
		"no nodes":      func() { FornbergWeights(0, nil, 0) },
		"deriv>=nodes":  func() { FornbergWeights(0, []float64{1}, 1) },
		"negative":      func() { FornbergWeights(0, []float64{1, 2}, -1) },
		"repeated node": func() { FornbergWeights(0, []float64{1, 1}, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFornbergSecondDerivative(t *testing.T) {
	// Uniform 3-point second derivative at center: [1, -2, 1]/h^2.
	h := 0.25
	c := FornbergWeights(0, []float64{-h, 0, h}, 2)
	want := []float64{1 / (h * h), -2 / (h * h), 1 / (h * h)}
	for i := range want {
		if !almostEq(c[2][i], want[i], 1e-11) {
			t.Fatalf("2nd-deriv weights = %v, want %v", c[2], want)
		}
	}
	// The 0th-derivative row must be the interpolation weights: delta at z.
	if !almostEq(c[0][1], 1, 1e-13) || math.Abs(c[0][0]) > 1e-13 || math.Abs(c[0][2]) > 1e-13 {
		t.Fatalf("0th-deriv weights = %v, want [0 1 0]", c[0])
	}
}

func TestFirstDerivativeWeightsIntoMatchesAllocatingForm(t *testing.T) {
	// Bit-identical agreement matters: the detector's false-positive
	// self-detection compares scaled errors with ExactEq, so the Into form
	// must perform the same floating-point operations in the same order.
	cases := [][]float64{
		{1.0, 0.3},
		{4.0, 3.7, 3.2},
		{2.0, 1.75, 1.35, 0.8},
		{0.18, 0.11, 0.05, 0.0, -0.2},
	}
	for _, nodes := range cases {
		z := nodes[0]
		want := FornbergWeights(z, nodes, 1)[1]
		dst := make([]float64, len(nodes))
		scratch := make([]float64, len(nodes))
		FirstDerivativeWeightsInto(dst, scratch, z, nodes)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("nodes %v: weight[%d] = %g, allocating form %g (must be bit-identical)", nodes, i, dst[i], want[i])
			}
		}
	}
}

func TestWeightsIntoPanicsOnBadBuffers(t *testing.T) {
	nodes := []float64{0, 1, 2}
	for name, fn := range map[string]func(){
		"lagrange short dst":   func() { LagrangeWeightsInto(make([]float64, 2), nodes, 3) },
		"lagrange repeated":    func() { LagrangeWeightsInto(make([]float64, 2), []float64{1, 1}, 3) },
		"fornberg short dst":   func() { FirstDerivativeWeightsInto(make([]float64, 2), make([]float64, 3), 0, nodes) },
		"fornberg short aux":   func() { FirstDerivativeWeightsInto(make([]float64, 3), make([]float64, 2), 0, nodes) },
		"fornberg single node": func() { FirstDerivativeWeightsInto(make([]float64, 1), make([]float64, 1), 0, []float64{1}) },
		"fornberg repeated":    func() { FirstDerivativeWeightsInto(make([]float64, 2), make([]float64, 2), 0, []float64{1, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestWeightsIntoAllocationFree(t *testing.T) {
	nodes := []float64{2.0, 1.75, 1.35, 0.8}
	dst := make([]float64, len(nodes))
	scratch := make([]float64, len(nodes))
	if n := testing.AllocsPerRun(200, func() {
		LagrangeWeightsInto(dst, nodes, 2.5)
		FirstDerivativeWeightsInto(dst, scratch, nodes[0], nodes)
	}); n != 0 {
		t.Fatalf("Into weight kernels allocate %v times per call, want 0", n)
	}
}
