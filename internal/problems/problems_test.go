package problems

import (
	"math"
	"strings"
	"testing"

	"repro/internal/control"
	"repro/internal/la"
	"repro/internal/ode"
)

// integrate runs a problem to completion with a Dormand-Prince integrator
// at its suggested tolerances.
func integrate(t *testing.T, p *Problem) *ode.Integrator {
	t.Helper()
	in := &ode.Integrator{Tab: ode.DormandPrince(), Ctrl: control.DefaultController(p.TolA, p.TolR)}
	in.Init(p.Sys, p.T0, p.TEnd, p.X0, p.H0)
	if _, err := in.Run(); err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	return in
}

func TestProblemsWithExactSolutions(t *testing.T) {
	for _, p := range []*Problem{Decay(), Oscillator(), Unstable(), Heat1D(16)} {
		in := integrate(t, p)
		want := p.Exact(p.TEnd)
		got := in.X()
		var maxErr float64
		for i := range want {
			if e := math.Abs(got[i] - want[i]); e > maxErr {
				maxErr = e
			}
		}
		if maxErr > 200*(p.TolA+p.TolR) {
			t.Errorf("%s: final error %g exceeds tolerance budget", p.Name, maxErr)
		}
	}
}

func TestUnstableDivergesAbove1(t *testing.T) {
	// The paper's example: initial point above 1 diverges.
	p := Unstable()
	in := &ode.Integrator{Tab: ode.HeunEuler(), Ctrl: control.DefaultController(1e-6, 1e-6), MaxSteps: 20000}
	in.Init(p.Sys, 0, 10, la.Vec{1.5}, 0.01)
	_, err := in.Run()
	// Divergence manifests as step-size underflow, NaN, or MaxSteps; it
	// must not reach tEnd with a finite answer.
	if err == nil && !in.X().HasNaNOrInf() {
		t.Fatalf("x0 = 1.5 did not diverge: x(10) = %v", in.X())
	}
}

func TestUnstableConvergesBelow1(t *testing.T) {
	p := Unstable()
	in := integrate(t, p)
	if in.X()[0] >= 1 {
		t.Fatalf("x(10) = %g, want < 1", in.X()[0])
	}
}

func TestVanDerPolLimitCycle(t *testing.T) {
	p := VanDerPol(5)
	in := integrate(t, p)
	// The limit cycle keeps |x| bounded by ~2.1.
	if math.Abs(in.X()[0]) > 3 {
		t.Fatalf("Van der Pol escaped: %v", in.X())
	}
	if !p.Stiff && VanDerPol(1000).Stiff != true {
		t.Fatal("stiffness flags wrong")
	}
}

func TestLorenzStaysOnAttractor(t *testing.T) {
	in := integrate(t, Lorenz())
	x := in.X()
	if x.HasNaNOrInf() {
		t.Fatal("Lorenz diverged")
	}
	if math.Abs(x[0]) > 25 || math.Abs(x[1]) > 35 || x[2] < 0 || x[2] > 55 {
		t.Fatalf("Lorenz left the attractor bounding box: %v", x)
	}
}

func TestBrusselatorDimsAndBoundedness(t *testing.T) {
	p := Brusselator1D(16)
	if p.Sys.Dim() != 32 {
		t.Fatalf("dim = %d, want 32", p.Sys.Dim())
	}
	in := integrate(t, p)
	for i, v := range in.X() {
		if math.IsNaN(v) || v < -1 || v > 10 {
			t.Fatalf("component %d out of physical range: %g", i, v)
		}
	}
}

func TestAdvectionTranslatesProfile(t *testing.T) {
	n := 128
	p := Advection1D(n)
	in := integrate(t, p)
	// After t = 0.5 at c = 1 the peak has moved half the domain (with some
	// upwind diffusion): peak should be near index n/2 + n/2 = 0... the
	// initial peak at x=0.5 moves to x = 1.0 == 0 (periodic).
	got := in.X()
	peak := got.MaxAbsIndex()
	wantPeak := 0 // x = 0.5 + 0.5 mod 1
	dist := peak - wantPeak
	if dist > n/2 {
		dist -= n
	}
	if dist < -n/2 {
		dist += n
	}
	if dist < -n/10 || dist > n/10 {
		t.Fatalf("advected peak at %d, want near %d", peak, wantPeak)
	}
}

func TestHeatDecaysMonotonically(t *testing.T) {
	p := Heat1D(16)
	in := integrate(t, p)
	// Fundamental mode decays by exp(-pi^2 * 0.1) ~ 0.373.
	mid := in.X()[7]
	want := math.Exp(-math.Pi*math.Pi*0.1) * math.Sin(math.Pi*8.0/17.0)
	if math.Abs(mid-want) > 0.02 {
		t.Fatalf("heat midpoint = %g, want ~%g", mid, want)
	}
}

func TestArenstorfClosesOrbit(t *testing.T) {
	p := Arenstorf()
	in := integrate(t, p)
	// The orbit is periodic: the final state returns near the start.
	if d := math.Hypot(in.X()[0]-p.X0[0], in.X()[1]-p.X0[1]); d > 0.05 {
		t.Fatalf("orbit did not close: distance %g", d)
	}
}

func TestStandardCorpus(t *testing.T) {
	std := Standard()
	if len(std) < 5 {
		t.Fatalf("corpus too small: %d", len(std))
	}
	names := map[string]bool{}
	for _, p := range std {
		if names[p.Name] {
			t.Fatalf("duplicate problem %s", p.Name)
		}
		names[p.Name] = true
		if p.Sys.Dim() != len(p.X0) {
			t.Fatalf("%s: dim %d != len(x0) %d", p.Name, p.Sys.Dim(), len(p.X0))
		}
		if p.TEnd <= p.T0 || p.H0 <= 0 {
			t.Fatalf("%s: bad time span", p.Name)
		}
	}
}

// TestByNameRejectsNarrowBubble pins the bubble's smallest grid: an axis
// narrower than the WENO ghost width is an error from ByName, not an index
// panic in the first Eval, and the smallest accepted grid evaluates.
func TestByNameRejectsNarrowBubble(t *testing.T) {
	for _, n := range []int{1, 2} {
		if _, err := ByName("bubble", n); err == nil {
			t.Errorf("bubble at n=%d: no error", n)
		}
	}
	for _, n := range []int{0, -1} {
		if _, err := ByName("bubble", n); err != nil {
			t.Errorf("bubble at n=%d (default grid): %v", n, err)
		}
	}
	p, err := ByName("bubble", 3)
	if err != nil {
		t.Fatal(err)
	}
	dst := make(la.Vec, len(p.X0))
	p.Sys.Eval(0, p.X0, dst)
	for i, v := range dst {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("bubble at n=3: RHS[%d] = %v", i, v)
		}
	}
}

// TestByNameRejectsWideBubble pins the bubble's largest grid: past twice
// DefaultGrid ByName is an error, reported before the problem is built, so
// it allocates less than building the smallest grid does.
func TestByNameRejectsWideBubble(t *testing.T) {
	for _, n := range []int{2*DefaultGrid + 1, 4096} {
		if _, err := ByName("bubble", n); err == nil {
			t.Errorf("bubble at n=%d: no error", n)
		}
	}
	if _, err := ByName("bubble", 2*DefaultGrid); err != nil {
		t.Errorf("bubble at n=%d: %v", 2*DefaultGrid, err)
	}
	build := testing.AllocsPerRun(5, func() { ByName("bubble", 3) })
	if reject := testing.AllocsPerRun(5, func() { ByName("bubble", 4096) }); reject >= build {
		t.Errorf("rejecting n=4096 allocates %v times, building n=3 %v: the grid is built before the check", reject, build)
	}
}

// TestByNameRejectsWide1DGrid pins the 1-D grids' largest n: past the
// largest bubble's state size ByName is an error, reported before the
// problem is built. One range check serves every entry, so Burgers shows
// its order: rejecting allocates less than building n = 3 does.
func TestByNameRejectsWide1DGrid(t *testing.T) {
	for _, name := range []string{"burgers", "burgers-crweno", "brusselator", "heat", "advection"} {
		if _, err := ByName(name, max1DGrid+1); err == nil {
			t.Errorf("%s at n=%d: no error", name, max1DGrid+1)
		}
		if _, err := ByName(name, max1DGrid); err != nil {
			t.Errorf("%s at n=%d: %v", name, max1DGrid, err)
		}
	}
	build := testing.AllocsPerRun(5, func() { ByName("burgers", 3) })
	if reject := testing.AllocsPerRun(5, func() { ByName("burgers", 1<<20) }); reject >= build {
		t.Errorf("rejecting n=2^20 allocates %v times, building n=3 %v: the grid is built before the check", reject, build)
	}
}

func TestBurgersRHSConservative(t *testing.T) {
	// Periodic conservative flux differencing: sum of the RHS is zero.
	for _, scheme := range []string{"weno5", "crweno5-periodic"} {
		p := Burgers1D(64, scheme)
		dst := la.NewVec(64)
		p.Sys.Eval(0, p.X0, dst)
		var sum float64
		for _, v := range dst {
			sum += v
		}
		if math.Abs(sum) > 1e-10 {
			t.Errorf("%s: RHS sum = %g, want 0 (conservation)", scheme, sum)
		}
	}
}

func TestBurgersShockStaysBounded(t *testing.T) {
	p := Burgers1D(64, "weno5")
	in := &ode.Integrator{Tab: ode.BogackiShampine(), Ctrl: control.DefaultController(p.TolA, p.TolR)}
	in.Init(p.Sys, p.T0, p.TEnd, p.X0, p.H0)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	// Post-shock solution must stay within the initial bounds [0.5, 1.5]
	// (plus a small tolerance): WENO is essentially non-oscillatory.
	for i, v := range in.X() {
		if v < 0.45 || v > 1.55 {
			t.Fatalf("component %d = %g escaped [0.5, 1.5]", i, v)
		}
	}
	// Mean is conserved at 1.
	var mean float64
	for _, v := range in.X() {
		mean += v
	}
	mean /= float64(len(in.X()))
	if math.Abs(mean-1) > 1e-3 {
		t.Fatalf("mean = %g, want 1 (conservation)", mean)
	}
}

func TestBurgersCRWENOMatchesWENOBeforeShock(t *testing.T) {
	// Both schemes are 5th order on smooth data: solutions agree closely
	// before the shock forms (t = 0.2 < 1/pi).
	run := func(scheme string) la.Vec {
		p := Burgers1D(64, scheme)
		p.TEnd = 0.1
		in := &ode.Integrator{Tab: ode.DormandPrince(), Ctrl: control.DefaultController(1e-8, 1e-8)}
		in.Init(p.Sys, p.T0, p.TEnd, p.X0, p.H0)
		if _, err := in.Run(); err != nil {
			t.Fatal(err)
		}
		return in.X().Clone()
	}
	a := run("weno5")
	b := run("crweno5-periodic")
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-4 {
			t.Fatalf("schemes diverge at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

// burgersExact solves u = u0(x - u t) by Newton iteration per point (valid
// before the shock forms at t* = 1/max(-u0') ~ 0.318).
func burgersExact(x, t float64) float64 {
	u0 := func(y float64) float64 { return 1 + 0.5*math.Sin(2*math.Pi*y) }
	du0 := func(y float64) float64 { return math.Pi * math.Cos(2*math.Pi*y) }
	u := u0(x)
	for iter := 0; iter < 50; iter++ {
		y := x - u*t
		f := u - u0(y)
		fp := 1 + t*du0(y)
		d := f / fp
		u -= d
		if math.Abs(d) < 1e-14 {
			break
		}
	}
	return u
}

func TestBurgersMatchesCharacteristics(t *testing.T) {
	// The full method-of-lines WENO5 + adaptive RK solution must match the
	// exact characteristic solution in the smooth regime.
	n := 256
	p := Burgers1D(n, "weno5")
	p.TEnd = 0.2
	in := &ode.Integrator{Tab: ode.DormandPrince(), Ctrl: control.DefaultController(1e-9, 1e-9), MaxStep: p.MaxStep}
	in.Init(p.Sys, p.T0, p.TEnd, p.X0, p.H0)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	var maxErr float64
	for i := 0; i < n; i++ {
		x := (float64(i) + 0.5) / float64(n)
		if e := math.Abs(in.X()[i] - burgersExact(x, 0.2)); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > 5e-5 {
		t.Fatalf("max error vs characteristics %g", maxErr)
	}
}

func TestBurgersSpatialConvergence(t *testing.T) {
	// Refining the grid at fixed (tight) time tolerance shows the spatial
	// scheme's high-order convergence in the smooth regime.
	solve := func(n int) float64 {
		p := Burgers1D(n, "weno5")
		p.TEnd = 0.1
		in := &ode.Integrator{Tab: ode.DormandPrince(), Ctrl: control.DefaultController(1e-10, 1e-10), MaxStep: p.MaxStep}
		in.Init(p.Sys, p.T0, p.TEnd, p.X0, p.H0)
		if _, err := in.Run(); err != nil {
			t.Fatal(err)
		}
		var maxErr float64
		for i := 0; i < n; i++ {
			x := (float64(i) + 0.5) / float64(n)
			if e := math.Abs(in.X()[i] - burgersExact(x, 0.1)); e > maxErr {
				maxErr = e
			}
		}
		return maxErr
	}
	e1, e2 := solve(64), solve(128)
	order := math.Log2(e1 / e2)
	if order < 3.5 { // WENO5 away from critical points; some weight damping expected
		t.Fatalf("spatial order %.2f (e1=%g e2=%g)", order, e1, e2)
	}
}

// TestByNameRejectsEmptyBrusselator pins the Brusselator's smallest grid:
// n = 1 would build a system of dimension 0, on which a campaign runs its
// replicates without a single injection, so ByName rejects it; n = 2 is
// one interior cell.
func TestByNameRejectsEmptyBrusselator(t *testing.T) {
	if _, err := ByName("brusselator", 1); err == nil || !strings.Contains(err.Error(), "outside its range [2, ") {
		t.Errorf("brusselator at n=1: err = %v, want a grid-range error", err)
	}
	for _, n := range []int{2, 0} {
		p, err := ByName("brusselator", n)
		if err != nil {
			t.Fatalf("brusselator at n=%d: %v", n, err)
		}
		if p.Sys.Dim() == 0 {
			t.Errorf("brusselator at n=%d: dimension 0", n)
		}
	}
}
