// Package problems collects the initial-value problems used by the tests,
// the examples, and the fault-injection campaigns: the paper's motivating
// nonlinear instability example (x-1)^2, classic nonstiff and stiff
// benchmarks, and method-of-lines discretizations of 1-D PDEs that mimic
// the structure (banded coupling, many unknowns) of the HyPar use case at
// laptop scale.
package problems

import (
	"math"

	"repro/internal/euler"
	"repro/internal/grid"
	"repro/internal/la"
	"repro/internal/ode"
	"repro/internal/pde"
	"repro/internal/weno"
)

// Problem bundles an initial-value problem with the settings a campaign
// needs to run it.
type Problem struct {
	Name string
	Sys  ode.System
	T0   float64
	TEnd float64
	X0   la.Vec
	H0   float64 // suggested initial step
	// MaxStep caps the step size (0 = uncapped). PDE workloads set it to a
	// CFL-stable value, as production codes do.
	MaxStep float64
	TolA    float64 // suggested absolute tolerance
	TolR    float64 // suggested relative tolerance
	Stiff   bool
	// Exact, when non-nil, returns the analytic solution at t.
	Exact func(t float64) la.Vec
	// NewSys, when non-nil, constructs an independent instance of the
	// right-hand side. PDE systems carry per-instance scratch buffers, so
	// concurrent campaign replicates must not share Sys; pure-function
	// systems leave NewSys nil and share Sys freely.
	NewSys func() ode.System
}

// SysInstance returns a right-hand side safe for exclusive use by one
// goroutine: a fresh instance when the system carries mutable scratch
// (NewSys non-nil), the shared Sys otherwise.
func (p *Problem) SysInstance() ode.System {
	if p.NewSys != nil {
		return p.NewSys()
	}
	return p.Sys
}

// Unstable is the paper's §II-B example dx/dt = (x-1)^2: starting below 1
// converges to 1; an SDC pushing the state above 1 diverges to infinity in
// finite time. The initial point 0.5 converges; x(t) = 1 - 1/(t + 2).
func Unstable() *Problem {
	return &Problem{
		Name: "unstable",
		Sys: ode.Func{N: 1, F: func(t float64, x, dst la.Vec) {
			d := x[0] - 1
			dst[0] = d * d
		}},
		T0: 0, TEnd: 10, X0: la.Vec{0.5}, H0: 0.01,
		TolA: 1e-6, TolR: 1e-6,
		Exact: func(t float64) la.Vec { return la.Vec{1 - 1/(t+2)} },
	}
}

// Decay is x' = -x, exact exp(-t).
func Decay() *Problem {
	return &Problem{
		Name: "decay",
		Sys:  ode.Func{N: 1, F: func(t float64, x, dst la.Vec) { dst[0] = -x[0] }},
		T0:   0, TEnd: 5, X0: la.Vec{1}, H0: 0.01,
		TolA: 1e-6, TolR: 1e-6,
		Exact: func(t float64) la.Vec { return la.Vec{math.Exp(-t)} },
	}
}

// Oscillator is the harmonic oscillator x” = -x, exact (cos t, -sin t).
func Oscillator() *Problem {
	return &Problem{
		Name: "oscillator",
		Sys: ode.Func{N: 2, F: func(t float64, x, dst la.Vec) {
			dst[0] = x[1]
			dst[1] = -x[0]
		}},
		T0: 0, TEnd: 20, X0: la.Vec{1, 0}, H0: 0.01,
		TolA: 1e-6, TolR: 1e-6,
		Exact: func(t float64) la.Vec { return la.Vec{math.Cos(t), -math.Sin(t)} },
	}
}

// VanDerPol is the Van der Pol oscillator with stiffness parameter mu; it
// is mildly stiff at mu = 5 and strongly stiff at mu = 1000.
func VanDerPol(mu float64) *Problem {
	stiff := mu > 10
	tEnd := 20.0
	if stiff {
		tEnd = 2 * mu
	}
	return &Problem{
		Name: "vanderpol",
		Sys: ode.Func{N: 2, F: func(t float64, x, dst la.Vec) {
			dst[0] = x[1]
			dst[1] = mu*(1-x[0]*x[0])*x[1] - x[0]
		}},
		T0: 0, TEnd: tEnd, X0: la.Vec{2, 0}, H0: 0.001,
		TolA: 1e-6, TolR: 1e-6, Stiff: stiff,
	}
}

// Lorenz is the chaotic Lorenz-63 system with the classic parameters.
func Lorenz() *Problem {
	const sigma, rho, beta = 10.0, 28.0, 8.0 / 3.0
	return &Problem{
		Name: "lorenz",
		Sys: ode.Func{N: 3, F: func(t float64, x, dst la.Vec) {
			dst[0] = sigma * (x[1] - x[0])
			dst[1] = x[0]*(rho-x[2]) - x[1]
			dst[2] = x[0]*x[1] - beta*x[2]
		}},
		T0: 0, TEnd: 10, X0: la.Vec{1, 1, 1}, H0: 0.001,
		TolA: 1e-6, TolR: 1e-6,
	}
}

// Brusselator1D is the 1-D reaction-diffusion Brusselator on n interior
// grid points with homogeneous Dirichlet-like fixed boundary values: the
// classic medium-scale method-of-lines benchmark (2n unknowns).
func Brusselator1D(n int) *Problem {
	const a, b, alpha = 1.0, 3.0, 1.0 / 50.0
	h := 1.0 / float64(n+1)
	coef := alpha / (h * h)
	x0 := la.NewVec(2 * n)
	for i := 0; i < n; i++ {
		xi := float64(i+1) * h
		x0[2*i] = 1 + math.Sin(2*math.Pi*xi) // u
		x0[2*i+1] = 3                        // v
	}
	sys := ode.Func{N: 2 * n, F: func(t float64, x, dst la.Vec) {
		for i := 0; i < n; i++ {
			u := x[2*i]
			v := x[2*i+1]
			uL, vL := 1.0, 3.0
			if i > 0 {
				uL, vL = x[2*(i-1)], x[2*(i-1)+1]
			}
			uR, vR := 1.0, 3.0
			if i < n-1 {
				uR, vR = x[2*(i+1)], x[2*(i+1)+1]
			}
			dst[2*i] = a + u*u*v - (b+1)*u + coef*(uL-2*u+uR)
			dst[2*i+1] = b*u - u*u*v + coef*(vL-2*v+vR)
		}
	}}
	return &Problem{
		Name: "brusselator1d",
		Sys:  sys,
		T0:   0, TEnd: 10, X0: x0, H0: 1e-4,
		TolA: 1e-5, TolR: 1e-5, Stiff: true,
	}
}

// Advection1D is the periodic linear advection equation u_t + c u_x = 0 on
// n points, discretized with first-order upwind differences; exact solution
// is the translated initial profile.
func Advection1D(n int) *Problem {
	const c = 1.0
	dx := 1.0 / float64(n)
	profile := func(x float64) float64 {
		return math.Exp(-100 * (x - 0.5) * (x - 0.5))
	}
	x0 := la.NewVec(n)
	for i := range x0 {
		x0[i] = profile(float64(i) * dx)
	}
	sys := ode.Func{N: n, F: func(t float64, u, dst la.Vec) {
		for i := 0; i < n; i++ {
			im := i - 1
			if im < 0 {
				im = n - 1
			}
			dst[i] = -c * (u[i] - u[im]) / dx
		}
	}}
	return &Problem{
		Name: "advection1d",
		Sys:  sys,
		T0:   0, TEnd: 0.5, X0: x0, H0: 0.2 * dx,
		TolA: 1e-4, TolR: 1e-4,
	}
}

// Heat1D is the heat equation u_t = u_xx on n interior points with zero
// boundaries, a classically stiff linear method-of-lines system.
func Heat1D(n int) *Problem {
	dx := 1.0 / float64(n+1)
	coef := 1 / (dx * dx)
	x0 := la.NewVec(n)
	for i := range x0 {
		x0[i] = math.Sin(math.Pi * float64(i+1) * dx)
	}
	sys := ode.Func{N: n, F: func(t float64, u, dst la.Vec) {
		for i := 0; i < n; i++ {
			var uL, uR float64
			if i > 0 {
				uL = u[i-1]
			}
			if i < n-1 {
				uR = u[i+1]
			}
			dst[i] = coef * (uL - 2*u[i] + uR)
		}
	}}
	return &Problem{
		Name: "heat1d",
		Sys:  sys,
		T0:   0, TEnd: 0.1, X0: x0, H0: 0.1 * dx * dx,
		TolA: 1e-6, TolR: 1e-6, Stiff: true,
		// sin(pi*x_i) is an exact eigenvector of the discrete Laplacian with
		// eigenvalue -(2/dx^2)(1-cos(pi*dx)), so the semi-discrete system
		// (the one the integrator actually solves) has this closed form.
		Exact: func(t float64) la.Vec {
			v := la.NewVec(n)
			lambda := 2 * coef * (1 - math.Cos(math.Pi*dx))
			decayFac := math.Exp(-lambda * t)
			for i := range v {
				v[i] = decayFac * math.Sin(math.Pi*float64(i+1)*dx)
			}
			return v
		},
	}
}

// Arenstorf is the restricted three-body problem's periodic orbit, a
// demanding nonstiff accuracy benchmark.
func Arenstorf() *Problem {
	const mu = 0.012277471
	const mup = 1 - mu
	return &Problem{
		Name: "arenstorf",
		Sys: ode.Func{N: 4, F: func(t float64, x, dst la.Vec) {
			y1, y2, y3, y4 := x[0], x[1], x[2], x[3]
			d1 := math.Pow((y1+mu)*(y1+mu)+y2*y2, 1.5)
			d2 := math.Pow((y1-mup)*(y1-mup)+y2*y2, 1.5)
			dst[0] = y3
			dst[1] = y4
			dst[2] = y1 + 2*y4 - mup*(y1+mu)/d1 - mu*(y1-mup)/d2
			dst[3] = y2 - 2*y3 - mup*y2/d1 - mu*y2/d2
		}},
		T0: 0, TEnd: 17.0652165601579625588917206249,
		X0: la.Vec{0.994, 0, 0, -2.00158510637908252240537862224},
		H0: 1e-4, TolA: 1e-9, TolR: 1e-9,
	}
}

// Standard returns the corpus used by the injection campaigns.
func Standard() []*Problem {
	return []*Problem{Decay(), Oscillator(), VanDerPol(5), Lorenz(), Brusselator1D(32)}
}

// Burgers1D is the inviscid Burgers equation u_t + (u^2/2)_x = 0 on a
// periodic domain, discretized with the scheme named by schemeName
// ("weno5", "crweno5-periodic") and Rusanov flux splitting. Its strongly
// nonlinear reconstruction reproduces the detection-relevant character of
// the paper's HyPar workload (marginally resolved hyperbolic dynamics,
// stencil switching under perturbations) at 1-D cost. The profile
// steepens into a moving shock around t ~ 1/pi.
func Burgers1D(n int, schemeName string) *Problem {
	if _, err := weno.ByName(schemeName); err != nil {
		panic(err)
	}
	dx := 1.0 / float64(n)
	x0 := la.NewVec(n)
	for i := range x0 {
		x := (float64(i) + 0.5) * dx
		x0[i] = 1 + 0.5*math.Sin(2*math.Pi*x)
	}
	// Each instance owns its scheme (CRWENO5 keeps tridiagonal scratch) and
	// padded flux buffers, so instances never share mutable state.
	makeSys := func() ode.System {
		s, _ := weno.ByName(schemeName)
		g := weno.Ghost
		padP := make([]float64, n+2*g) // padded split flux f+
		padM := make([]float64, n+2*g) // padded reversed split flux f-
		fhatP := make([]float64, n+1)
		fhatM := make([]float64, n+1)
		return ode.Func{N: n, F: func(t float64, u, dst la.Vec) {
			// Rusanov splitting f±(u) = (u^2/2 ± alpha*u)/2.
			alpha := 0.0
			for _, v := range u {
				if a := math.Abs(v); a > alpha {
					alpha = a
				}
			}
			for i := -g; i < n+g; i++ {
				// Only the ghost cells wrap around the periodic line.
				ii := i
				if i < 0 || i >= n {
					ii = ((i % n) + n) % n
				}
				v := u[ii]
				fl := 0.5 * v * v
				padP[i+g] = 0.5 * (fl + alpha*v)
				// f- is reconstructed right-biased: reverse the line in place.
				padM[n+2*g-1-(i+g)] = 0.5 * (fl - alpha*v)
			}
			s.ReconstructLeft(fhatP, padP)
			s.ReconstructLeft(fhatM, padM)
			for i := 0; i < n; i++ {
				// Interface i+1/2 of f- is reversed interface n-1-i+...:
				// reversed line interface k corresponds to original n-k.
				fp := fhatP[i+1] + fhatM[n-1-i]
				fm := fhatP[i] + fhatM[n-i]
				dst[i] = -(fp - fm) / dx
			}
		}}
	}
	return &Problem{
		Name: "burgers1d-" + schemeName,
		Sys:  makeSys(), NewSys: makeSys,
		T0: 0, TEnd: 0.5, X0: x0, H0: 0.2 * dx, MaxStep: 0.3 * dx,
		TolA: 1e-4, TolR: 1e-4,
	}
}

// Bubble2D is the paper's use case at laptop scale: the 2-D rising thermal
// bubble (Giraldo & Restelli benchmark) on an n-by-n grid, solved with the
// named reconstruction scheme ("weno5" or "crweno5") and CFL-capped
// adaptive stepping. tEnd selects the simulated window; injection
// campaigns restart the window until enough SDCs accumulate.
func Bubble2D(n int, schemeName string, tEnd float64) *Problem {
	if _, err := weno.ByName(schemeName); err != nil {
		panic(err)
	}
	// The grid is immutable after construction and shared; the Euler system
	// and its scheme carry per-instance scratch, so each instance is fresh.
	g := grid.New2D(n, n, 1000, 1000)
	makeSys := func() ode.System {
		s, _ := weno.ByName(schemeName)
		return pde.NewEulerSystem(g, euler.DefaultGas(), s)
	}
	sys := makeSys().(*pde.EulerSystem)
	x0 := sys.InitialState(euler.DefaultBubble())
	dt := sys.MaxDt(x0, 0.5)
	return &Problem{
		Name: "bubble2d-" + schemeName,
		Sys:  sys, NewSys: makeSys,
		T0: 0, TEnd: tEnd, X0: x0, H0: dt / 4, MaxStep: dt,
		TolA: 1e-4, TolR: 1e-4,
	}
}

// Robertson is the classic autocatalytic chemical kinetics problem, the
// canonical severe stiffness benchmark (rate constants spanning nine orders
// of magnitude). Explicit pairs stall on it; the implicit integrators in
// internal/implicit handle it.
func Robertson() *Problem {
	return &Problem{
		Name: "robertson",
		Sys: ode.Func{N: 3, F: func(t float64, x, dst la.Vec) {
			dst[0] = -0.04*x[0] + 1e4*x[1]*x[2]
			dst[1] = 0.04*x[0] - 1e4*x[1]*x[2] - 3e7*x[1]*x[1]
			dst[2] = 3e7 * x[1] * x[1]
		}},
		T0: 0, TEnd: 100, X0: la.Vec{1, 0, 0}, H0: 1e-6,
		TolA: 1e-8, TolR: 1e-6, Stiff: true,
	}
}
