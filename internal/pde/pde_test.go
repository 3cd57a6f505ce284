package pde

import (
	"math"
	"testing"

	"repro/internal/control"
	"repro/internal/euler"
	"repro/internal/grid"
	"repro/internal/la"
	"repro/internal/ode"
	"repro/internal/weno"
)

var _ control.System = (*EulerSystem)(nil)

func newBubbleSystem(n int, scheme weno.Scheme) (*EulerSystem, la.Vec) {
	g := grid.New2D(n, n, 1000, 1000)
	s := NewEulerSystem(g, euler.DefaultGas(), scheme)
	return s, s.InitialState(euler.DefaultBubble())
}

func TestWellBalancedAtRest(t *testing.T) {
	// The hydrostatic background (zero perturbation) must be an exact
	// discrete steady state: RHS identically ~0.
	for _, scheme := range []weno.Scheme{weno.Weno5{}, &weno.Crweno5{}} {
		s, _ := newBubbleSystem(16, scheme)
		x := la.NewVec(s.Dim())
		dst := la.NewVec(s.Dim())
		s.Eval(0, x, dst)
		if m := dst.NormInf(); m > 1e-8 {
			t.Errorf("%s: rest-state RHS max %g, want ~0", s.Scheme.Name(), m)
		}
	}
}

func TestMassConservation(t *testing.T) {
	// Periodic-x / wall-y: the total rho' tendency must vanish.
	s, x0 := newBubbleSystem(16, weno.Weno5{})
	dst := la.NewVec(s.Dim())
	s.Eval(0, x0, dst)
	var sum float64
	for _, v := range s.VarSlice(dst, 0) {
		sum += v
	}
	if math.Abs(sum) > 1e-9 {
		t.Fatalf("mass tendency sum %g, want 0", sum)
	}
}

func TestInitialTendencyIsBuoyancy(t *testing.T) {
	// At t = 0 the only forcing is buoyancy: the vertical momentum tendency
	// inside the bubble is positive (the bubble is lighter).
	s, x0 := newBubbleSystem(16, weno.Weno5{})
	dst := la.NewVec(s.Dim())
	s.Eval(0, x0, dst)
	g := s.Grid
	center := g.Index(8, 5, 0) // near (500, 350)
	mw := s.VarSlice(dst, 2)   // vertical momentum tendency
	if mw[center] <= 0 {
		t.Fatalf("bubble center vertical tendency %g, want > 0", mw[center])
	}
}

func TestBubbleRises(t *testing.T) {
	if testing.Short() {
		t.Skip("bubble integration takes seconds")
	}
	// Integrate 120 s on a coarse grid: after the initial acoustic
	// adjustment, the buoyant-anomaly centroid moves upward.
	s, x0 := newBubbleSystem(20, weno.Weno5{})
	dt := s.MaxDt(x0, 0.5)
	in := &ode.Integrator{Tab: ode.BogackiShampine(), Ctrl: control.DefaultController(1e-4, 1e-4), MaxStep: dt}
	in.Init(s, 0, 120, x0, dt/4)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	centroid := func(x la.Vec) float64 {
		rho := s.VarSlice(x, 0)
		var num, den float64
		g := s.Grid
		for j := 0; j < g.N[1]; j++ {
			for i := 0; i < g.N[0]; i++ {
				w := -rho[g.Index(i, j, 0)] // bubble has negative rho'
				if w < 0 {
					w = 0 // ignore acoustic-wave positives
				}
				num += w * g.Coord(1, j)
				den += w
			}
		}
		return num / den
	}
	z0 := centroid(x0)
	z1 := centroid(in.X())
	if z1 <= z0+3 {
		t.Fatalf("bubble did not rise: %g -> %g m", z0, z1)
	}
	if in.X().HasNaNOrInf() {
		t.Fatal("solution corrupted")
	}
}

func TestMirrorSymmetryPreserved(t *testing.T) {
	// The setup is symmetric about x = 500: one RHS evaluation preserves
	// the mirror symmetry (rho, E, m_y even; m_x odd).
	s, x0 := newBubbleSystem(16, weno.Weno5{})
	dst := la.NewVec(s.Dim())
	s.Eval(0, x0, dst)
	g := s.Grid
	n := g.N[0]
	for v := 0; v < 4; v++ {
		field := s.VarSlice(dst, v)
		sign := 1.0
		if v == 1 {
			sign = -1
		}
		for j := 0; j < g.N[1]; j++ {
			for i := 0; i < n/2; i++ {
				a := field[g.Index(i, j, 0)]
				b := field[g.Index(n-1-i, j, 0)]
				if math.Abs(a-sign*b) > 1e-6*(math.Abs(a)+1e-300) {
					t.Fatalf("var %d asymmetric at (%d,%d): %g vs %g", v, i, j, a, b)
				}
			}
		}
	}
}

func TestMaxDtScalesWithGrid(t *testing.T) {
	s16, x16 := newBubbleSystem(16, weno.Weno5{})
	s32, x32 := newBubbleSystem(32, weno.Weno5{})
	dt16 := s16.MaxDt(x16, 0.5)
	dt32 := s32.MaxDt(x32, 0.5)
	if r := dt16 / dt32; r < 1.8 || r > 2.2 {
		t.Fatalf("CFL dt ratio %g, want ~2", r)
	}
	// Sanity: dx = 1000/16 = 62.5 m, c ~ 347 : dt ~ 0.5*62.5/347 ~ 0.09 s.
	if dt16 < 0.05 || dt16 > 0.15 {
		t.Fatalf("dt16 = %g out of expected range", dt16)
	}
}

func TestDimAndVarSlice(t *testing.T) {
	s, x0 := newBubbleSystem(8, weno.Weno5{})
	if s.Dim() != 4*64 {
		t.Fatalf("Dim = %d", s.Dim())
	}
	if len(x0) != s.Dim() {
		t.Fatalf("initial state len %d", len(x0))
	}
	if len(s.VarSlice(x0, 3)) != 64 {
		t.Fatal("VarSlice size wrong")
	}
}

func TestEnergyPerturbationZeroInitially(t *testing.T) {
	s, x0 := newBubbleSystem(8, weno.Weno5{})
	if m := la.Vec(s.VarSlice(x0, 3)).NormInf(); m != 0 {
		t.Fatalf("initial E' max %g, want 0", m)
	}
	if m := la.Vec(s.VarSlice(x0, 0)).NormInf(); m == 0 {
		t.Fatal("initial rho' all zero; bubble missing")
	}
}

func Test3DGridSupported(t *testing.T) {
	g := grid.New3D(8, 8, 8, 1000, 1000, 1000)
	s := NewEulerSystem(g, euler.DefaultGas(), weno.Weno5{})
	if s.Dim() != 5*512 {
		t.Fatalf("3-D dim = %d", s.Dim())
	}
	b := euler.BubbleSpec{Center: [3]float64{500, 350, 500}, Rc: 250, DTheta: 0.5}
	x0 := s.InitialState(b)
	dst := la.NewVec(s.Dim())
	s.Eval(0, x0, dst)
	if dst.HasNaNOrInf() {
		t.Fatal("3-D RHS produced NaN/Inf")
	}
	// Buoyancy acts along axis 1: some positive vertical tendency exists.
	var maxMw float64
	for _, v := range s.VarSlice(dst, 2) {
		if v > maxMw {
			maxMw = v
		}
	}
	if maxMw <= 0 {
		t.Fatal("3-D bubble has no upward tendency")
	}
}

func TestGhostIndexMappings(t *testing.T) {
	for _, tc := range []struct {
		i, n  int
		bc    BC
		want  int
		wantS float64
	}{
		{3, 8, Periodic, 3, 1},
		{-1, 8, Periodic, 7, 1},
		{9, 8, Periodic, 1, 1},
		{-1, 8, Wall, 0, -1},
		{-3, 8, Wall, 2, -1},
		{8, 8, Wall, 7, -1},
		{10, 8, Wall, 5, -1},
		{-2, 8, Outflow, 0, 1},
		{9, 8, Outflow, 7, 1},
	} {
		got, s := ghostIndex(tc.i, tc.n, tc.bc)
		if got != tc.want || s != tc.wantS {
			t.Fatalf("ghostIndex(%d, %d, %v) = (%d, %g), want (%d, %g)",
				tc.i, tc.n, tc.bc, got, s, tc.want, tc.wantS)
		}
	}
}

func TestOutflowStillWellBalanced(t *testing.T) {
	g := grid.New2D(16, 16, 1000, 1000)
	s := NewEulerSystem(g, euler.DefaultGas(), weno.Weno5{})
	s.BCs = [3]BC{Outflow, Wall, Periodic}
	x := la.NewVec(s.Dim())
	dst := la.NewVec(s.Dim())
	s.Eval(0, x, dst)
	if m := dst.NormInf(); m > 1e-8 {
		t.Fatalf("outflow rest-state RHS max %g", m)
	}
}

func TestParabolicRestStateStillSteady(t *testing.T) {
	// Conduction acts on the temperature *perturbation*, so the balanced
	// background stays an exact steady state even with nu, kappa > 0.
	s, _ := newBubbleSystem(16, weno.Weno5{})
	s.SetParabolic(10, 10)
	x := la.NewVec(s.Dim())
	dst := la.NewVec(s.Dim())
	s.Eval(0, x, dst)
	if m := dst.NormInf(); m > 1e-7 {
		t.Fatalf("viscous rest-state RHS max %g", m)
	}
}

func TestViscousShearDecay(t *testing.T) {
	// A horizontal shear u(z) = U sin(k z) decays at rate nu k^2 under the
	// viscous term. Check the instantaneous momentum tendency against the
	// analytic Laplacian.
	s, _ := newBubbleSystem(32, weno.Weno5{})
	nu := 5.0
	s.SetParabolic(nu, 0)
	g := s.Grid
	x := la.NewVec(s.Dim())
	k := 2 * math.Pi / 1000
	for j := 0; j < g.N[1]; j++ {
		for i := 0; i < g.N[0]; i++ {
			idx := g.Index(i, j, 0)
			rho := s.bg[0][idx]
			x[1*s.np+idx] = rho * 0.1 * math.Sin(k*g.Coord(1, j)) // m_x = rho u
		}
	}
	dst := la.NewVec(s.Dim())
	s.Eval(0, x, dst)
	// At an interior point away from walls, the viscous contribution to
	// d(m_x)/dt is rho*nu*Lap(u) = -rho*nu*k^2*u; advection adds more, so
	// compare against a run with nu = 0 and check the difference.
	s2, _ := newBubbleSystem(32, weno.Weno5{})
	dst2 := la.NewVec(s2.Dim())
	s2.Eval(0, x, dst2)
	j, i := 16, 8
	idx := g.Index(i, j, 0)
	visc := dst[1*s.np+idx] - dst2[1*s.np+idx]
	rho := s.bg[0][idx]
	u := x[1*s.np+idx] / rho
	want := -rho * nu * k * k * u
	if math.Abs(visc-want) > 0.05*math.Abs(want) {
		t.Fatalf("viscous tendency %g, want %g", visc, want)
	}
}

func TestConductionSmoothsBubble(t *testing.T) {
	// With conduction on, the thermal anomaly's energy tendency at the
	// bubble center is negative (heat diffuses away): E' decreases where
	// T' peaks.
	s, x0 := newBubbleSystem(16, weno.Weno5{})
	s.SetParabolic(0, 50)
	dst := la.NewVec(s.Dim())
	s.Eval(0, x0, dst)
	s2, _ := newBubbleSystem(16, weno.Weno5{})
	dst2 := la.NewVec(s2.Dim())
	s2.Eval(0, x0, dst2)
	g := s.Grid
	center := g.Index(8, 5, 0)
	cond := dst[3*s.np+center] - dst2[3*s.np+center]
	if cond >= 0 {
		t.Fatalf("conduction tendency at warm center = %g, want < 0", cond)
	}
}

func TestIntegralsConservedOverTime(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	s, x0 := newBubbleSystem(16, weno.Weno5{})
	before := s.Integrals(x0)
	dt := s.MaxDt(x0, 0.5)
	in := &ode.Integrator{Tab: ode.BogackiShampine(), Ctrl: control.DefaultController(1e-4, 1e-4), MaxStep: dt}
	in.Init(s, 0, 10, x0, dt/4)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	after := s.Integrals(in.X())
	// Mass (rho') and horizontal momentum are conserved exactly by the
	// flux form (periodic-x, wall-y has no mass flux through walls).
	if d := math.Abs(after[0] - before[0]); d > 1e-9 {
		t.Fatalf("mass drifted by %g", d)
	}
	if d := math.Abs(after[1] - before[1]); d > 1e-9 {
		t.Fatalf("x-momentum drifted by %g", d)
	}
	// Vertical momentum and energy have sources (gravity): not conserved.
	if after[2] == before[2] {
		t.Fatal("vertical momentum suspiciously unchanged despite buoyancy")
	}
}

func TestSodShockTube(t *testing.T) {
	// The canonical gas-dynamics acceptance test: gravity-free 1-D Euler
	// with (rho, u, p) = (1, 0, 1) | (0.125, 0, 0.1). The exact Riemann
	// solution at t = 0.2 (domain [0,1], diaphragm at 0.5, gamma = 1.4) has
	// the intermediate states rho* ~ 0.426 / 0.266 and p* ~ 0.3031.
	n := 200
	g := grid.New1D(n, 1.0)
	gas := euler.Gas{Gamma: 1.4, R: 1, G: 0, P0: 1, Theta0: 1}
	s := NewEulerSystem(g, gas, weno.Weno5{})
	s.BCs = [3]BC{Outflow, Outflow, Outflow}
	// Background from Gas.Background(0): p = P0 = 1, rho = 1/(R*Theta0) = 1,
	// e = 2.5. State stored as perturbation from that.
	x0 := la.NewVec(s.Dim())
	rhoF := s.VarSlice(x0, 0)
	eF := s.VarSlice(x0, 2)
	for i := 0; i < n; i++ {
		if g.Coord(0, i) < 0.5 {
			rhoF[i] = 1 - 1     // rho' = 0
			eF[i] = 1/0.4 - 2.5 // E' = 0
		} else {
			rhoF[i] = 0.125 - 1
			eF[i] = 0.1/0.4 - 2.5
		}
	}
	dt := s.MaxDt(x0, 0.4)
	in := &ode.Integrator{Tab: ode.BogackiShampine(), Ctrl: control.DefaultController(1e-4, 1e-4), MaxStep: dt}
	in.Init(s, 0, 0.2, x0, dt/4)
	if _, err := in.Run(); err != nil {
		t.Fatal(err)
	}
	rho := make([]float64, n)
	for i := range rho {
		rho[i] = s.VarSlice(in.X(), 0)[i] + 1 // full density
	}
	// Left state untouched, right state untouched.
	if math.Abs(rho[5]-1) > 1e-3 || math.Abs(rho[n-5]-0.125) > 1e-3 {
		t.Fatalf("far states disturbed: %g, %g", rho[5], rho[n-5])
	}
	// Contact plateau (between x ~ 0.62 and 0.72 at t=0.2): rho ~ 0.426.
	plateau := rho[int(0.66*float64(n))]
	if math.Abs(plateau-0.4263) > 0.03 {
		t.Fatalf("contact-side plateau rho = %g, want ~0.426", plateau)
	}
	// Post-shock plateau (x ~ 0.75-0.84): rho ~ 0.266.
	post := rho[int(0.80*float64(n))]
	if math.Abs(post-0.2656) > 0.03 {
		t.Fatalf("post-shock plateau rho = %g, want ~0.266", post)
	}
	// Monotonicity across the shock: no spurious oscillation beyond 2%.
	for i := 1; i < n; i++ {
		if rho[i] > rho[i-1]+0.02 && g.Coord(0, i) > 0.6 {
			t.Fatalf("oscillation at x=%g: rho %g -> %g", g.Coord(0, i), rho[i-1], rho[i])
		}
	}
}
