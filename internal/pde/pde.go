// Package pde assembles the method-of-lines right-hand side of the paper's
// HyPar use case: conservative finite differences of the perturbation-form
// Euler fluxes, reconstructed dimension-by-dimension with WENO5 or CRWENO5
// and Rusanov (local Lax-Friedrichs) splitting, plus the gravitational
// source. The result implements ode.System, so the adaptive integrators and
// SDC detectors run on it unchanged.
package pde

import (
	"fmt"
	"math"

	"repro/internal/euler"
	"repro/internal/grid"
	"repro/internal/la"
	"repro/internal/weno"
)

// BC selects the boundary treatment of an axis.
type BC int

const (
	// Periodic wraps the axis.
	Periodic BC = iota
	// Wall reflects the axis (slip wall): perturbations mirror, the normal
	// momentum flips sign.
	Wall
	// Outflow extrapolates the boundary cell (zero-gradient), letting waves
	// leave the domain.
	Outflow
)

// EulerSystem is the rising-bubble right-hand side on a Cartesian grid.
// Construct with NewEulerSystem, then use as an ode.System.
type EulerSystem struct {
	Grid   *grid.Grid
	Gas    euler.Gas
	Scheme weno.Scheme
	BCs    [3]BC
	// GravAxis is the vertical axis index (default 1 for 2-D grids).
	GravAxis int
	// Nu and Kappa are the parabolic coefficients (kinematic viscosity and
	// thermal diffusivity); set through SetParabolic. Zero means purely
	// hyperbolic, the bubble benchmark's default.
	Nu, Kappa float64
	// AlphaOverride, when non-nil (len 3), replaces the internally computed
	// per-axis Rusanov splitting speeds — distributed solvers set it to the
	// globally Allreduced maxima so every rank splits fluxes identically.
	AlphaOverride []float64

	d     int   // active dimensions
	nvar  int   // d + 2
	axes  []int // active axis list
	np    int   // grid points
	lines [3][]grid.Line
	bg    [3][]float64 // background rho/p/E per point
	scr   *scratch
}

// scratch is the system's per-Eval workspace, sized at construction.
type scratch struct {
	// Pass 1 reads every grid point once and keeps what the fluxes and
	// the parabolic terms need from it: the pressure perturbation p',
	// E + p, and the velocity m/rho along each active axis (indexed like
	// the momenta). tp, allocated by SetParabolic, is the temperature
	// perturbation, filled only while the parabolic terms are on.
	pp, ep []float64
	vel    [3][]float64
	tp     []float64
	fP     [][]float64 // padded split flux + per variable
	fM     [][]float64 // padded reversed split flux - per variable
	fhatP  []float64
	fhatM  []float64
	maxbuf []float64
}

// NewEulerSystem builds the system. The scheme defaults to WENO5, the
// boundary conditions to periodic-x / wall-vertical, matching the bubble
// benchmark.
func NewEulerSystem(g *grid.Grid, gas euler.Gas, scheme weno.Scheme) *EulerSystem {
	s := &EulerSystem{Grid: g, Gas: gas, Scheme: scheme, GravAxis: 1}
	if scheme == nil {
		s.Scheme = weno.Weno5{}
	}
	s.BCs = [3]BC{Periodic, Wall, Periodic}
	s.axes = g.ActiveAxes()
	s.d = len(s.axes)
	s.nvar = s.d + 2
	s.np = g.Points()
	if !g.Active(s.GravAxis) {
		// 1-D or gravity-free setups: no vertical axis, no buoyancy source.
		s.GravAxis = -1
	}
	maxLen := 0
	for _, ax := range s.axes {
		s.lines[ax] = g.Lines(ax, make([]grid.Line, 0, s.np/g.N[ax]))
		if g.N[ax] > maxLen {
			maxLen = g.N[ax]
		}
	}
	// Precompute the background columns per point.
	bg := make([]float64, 3*s.np)
	for f := 0; f < 3; f++ {
		s.bg[f] = bg[f*s.np : (f+1)*s.np : (f+1)*s.np]
	}
	for k := 0; k < g.N[2]; k++ {
		for j := 0; j < g.N[1]; j++ {
			var z float64
			switch s.GravAxis {
			case 1:
				z = g.Coord(1, j)
			case 2:
				z = g.Coord(2, k)
			}
			rho, p, e := gas.Background(z)
			for i := 0; i < g.N[0]; i++ {
				if s.GravAxis == 0 {
					rho, p, e = gas.Background(g.Coord(0, i))
				}
				idx := g.Index(i, j, k)
				s.bg[0][idx] = rho
				s.bg[1][idx] = p
				s.bg[2][idx] = e
			}
		}
	}
	pad := maxLen + 2*weno.Ghost
	sc := &scratch{
		fhatP:  make([]float64, maxLen+1),
		fhatM:  make([]float64, maxLen+1),
		maxbuf: make([]float64, 3),
	}
	// The per-point caches and the padded lines each share one backing
	// array; the three-index slices keep them from growing into each other.
	cache := make([]float64, (2+s.d)*s.np)
	sc.pp, sc.ep = cache[:s.np:s.np], cache[s.np:2*s.np:2*s.np]
	for ai := 0; ai < s.d; ai++ {
		sc.vel[ai] = cache[(2+ai)*s.np : (3+ai)*s.np : (3+ai)*s.np]
	}
	padded := make([]float64, 2*s.nvar*pad)
	sc.fP = make([][]float64, s.nvar)
	sc.fM = make([][]float64, s.nvar)
	for v := 0; v < s.nvar; v++ {
		sc.fP[v] = padded[2*v*pad : (2*v+1)*pad : (2*v+1)*pad]
		sc.fM[v] = padded[(2*v+1)*pad : (2*v+2)*pad : (2*v+2)*pad]
	}
	s.scr = sc
	return s
}

// Dim implements ode.System: nvar values per grid point, variable-major.
func (s *EulerSystem) Dim() int { return s.nvar * s.np }

// VarSlice returns the sub-slice of x holding variable v.
func (s *EulerSystem) VarSlice(x la.Vec, v int) []float64 {
	return x[v*s.np : (v+1)*s.np]
}

// axisIndexOf maps a grid axis to its position among the active axes
// (the momentum component index).
func (s *EulerSystem) axisIndexOf(ax int) int {
	for i, a := range s.axes {
		if a == ax {
			return i
		}
	}
	panic(fmt.Sprintf("pde: axis %d not active", ax))
}

// ghostIndex maps a possibly out-of-range line index to an interior index
// and a sign for the normal momentum under the axis BC.
func ghostIndex(i, n int, bc BC) (int, float64) {
	switch {
	case i >= 0 && i < n:
		return i, 1
	case bc == Periodic:
		return ((i % n) + n) % n, 1
	case bc == Outflow:
		if i < 0 {
			return 0, 1
		}
		return n - 1, 1
	case i < 0:
		return -1 - i, -1
	default:
		return 2*n - 1 - i, -1
	}
}

// Eval implements ode.System. Pass 1 reads every grid point once, keeps
// in the scratch what the later passes need from it and accumulates the
// Rusanov speeds and the gravity source; pass 2 fills each line's padded
// split fluxes one variable at a time from those values and differences
// the reconstructed interface fluxes; pass 3 adds the parabolic terms.
// Nothing is derived from BCs, AlphaOverride or the parabolic coefficients
// before the call, because callers set them after construction.
//
// Each value takes euler.Gas.Unpack's, MaxWave's and euler.Flux's
// operations in their order, so the bits are theirs (DESIGN.md §7).
func (s *EulerSystem) Eval(t float64, x la.Vec, dst la.Vec) {
	g := s.Grid
	sc := s.scr
	np, d := s.np, s.d
	gas := s.Gas
	dst.Zero()
	parabolic := s.Nu != 0 || s.Kappa != 0

	// Pass 1: per-point values, global Rusanov speeds per axis and the
	// gravity source. The pressure, the sound speed and each velocity are
	// taken once per point.
	alpha := sc.maxbuf
	for i := range alpha {
		alpha[i] = 0
	}
	gm := -1
	if s.GravAxis >= 0 {
		gm = s.axisIndexOf(s.GravAxis)
	}
	rhoBar, pBar, eBar := s.bg[0][:np], s.bg[1][:np], s.bg[2][:np]
	rhoP, eP := x[:np], x[(1+d)*np:(2+d)*np]
	var mom [3][]float64
	for ai := 0; ai < d; ai++ {
		mom[ai] = x[(1+ai)*np : (2+ai)*np]
	}
	for idx := 0; idx < np; idx++ {
		rho, e := rhoBar[idx]+rhoP[idx], eBar[idx]+eP[idx]
		var ke float64
		for ai := 0; ai < d; ai++ {
			m := mom[ai][idx]
			ke += m * m
		}
		ke /= 2 * rho
		p := (gas.Gamma - 1) * (e - ke)
		sc.pp[idx], sc.ep[idx] = p-pBar[idx], e+p
		c := math.Sqrt(gas.Gamma * p / rho)
		for ai, ax := range s.axes {
			u := mom[ai][idx] / rho
			sc.vel[ai][idx] = u
			if w := math.Abs(u) + c; w > alpha[ax] {
				alpha[ax] = w
			}
		}
		if parabolic {
			// T' = T - TBar, with T = p/(R rho).
			tBar := pBar[idx] / (gas.R * rhoBar[idx])
			sc.tp[idx] = p/(gas.R*rho) - tBar
		}
		if gm < 0 {
			continue
		}
		// Gravity source: d(m_vert)/dt -= rho' g ; dE'/dt -= rho g w.
		dst[(1+gm)*np+idx] -= rhoP[idx] * gas.G
		dst[(1+d)*np+idx] -= rho * gas.G * sc.vel[gm][idx]
	}

	if s.AlphaOverride != nil {
		copy(alpha, s.AlphaOverride)
	}

	// Pass 2: flux divergence axis by axis.
	for _, ax := range s.axes {
		n := g.N[ax]
		bc := s.BCs[ax]
		dxi := 1 / g.Dx[ax]
		a := alpha[ax]
		ami := s.axisIndexOf(ax)
		last := n + 2*weno.Ghost - 1 // padded index of the last cell
		mA, uA := mom[ami], sc.vel[ami]
		for _, ln := range s.lines[ax] {
			// Interior cells read their own point; only the ghost cells map
			// through the axis BC. A slip-wall ghost mirrors its point's
			// normal momentum and velocity; negation is exact, so each
			// finite split flux equals euler.Flux of the mirrored state.
			var gjp, gflat [2 * weno.Ghost]int
			var gmA, guA [2 * weno.Ghost]float64
			for k := range gjp {
				jp := k
				if k >= weno.Ghost {
					jp += n
				}
				src, sign := ghostIndex(jp-weno.Ghost, n, bc)
				flat := ln.Start + src*ln.Stride
				gjp[k], gflat[k], gmA[k], guA[k] = jp, flat, mA[flat], uA[flat]
				if sign < 0 {
					gmA[k], guA[k] = -gmA[k], -guA[k]
				}
			}
			for v := 0; v < s.nvar; v++ {
				// The Rusanov split fluxes f± = (F(q) ± a q)/2 of variable
				// v along the axis, f+ in line order and f- reversed.
				fp, fm := sc.fP[v][:last+1], sc.fM[v][:last+1]
				col := x[v*np : (v+1)*np]
				flat := ln.Start
				switch {
				case v == 0: // rho', flux m_a
					for jp := weno.Ghost; jp < weno.Ghost+n; jp++ {
						split(fp, fm, jp, mA[flat], col[flat], a)
						flat += ln.Stride
					}
					for k, src := range gflat {
						split(fp, fm, gjp[k], gmA[k], col[src], a)
					}
				case v == 1+ami: // normal momentum, flux m_a u_a + p'
					for jp := weno.Ghost; jp < weno.Ghost+n; jp++ {
						m := mA[flat]
						split(fp, fm, jp, m*uA[flat]+sc.pp[flat], m, a)
						flat += ln.Stride
					}
					for k, src := range gflat {
						split(fp, fm, gjp[k], gmA[k]*guA[k]+sc.pp[src], gmA[k], a)
					}
				case v == 1+d: // E', flux (E + p) u_a
					for jp := weno.Ghost; jp < weno.Ghost+n; jp++ {
						split(fp, fm, jp, sc.ep[flat]*uA[flat], col[flat], a)
						flat += ln.Stride
					}
					for k, src := range gflat {
						split(fp, fm, gjp[k], sc.ep[src]*guA[k], col[src], a)
					}
				default: // tangential momentum m_i, flux m_i u_a
					for jp := weno.Ghost; jp < weno.Ghost+n; jp++ {
						m := col[flat]
						split(fp, fm, jp, m*uA[flat], m, a)
						flat += ln.Stride
					}
					for k, src := range gflat {
						m := col[src]
						split(fp, fm, gjp[k], m*guA[k], m, a)
					}
				}
			}
			// Reconstruct and difference per variable. f- runs on the
			// reversed line, so its interface k is the original n-k; the
			// right interface flux of cell i is the left one of cell i+1.
			for v := 0; v < s.nvar; v++ {
				s.Scheme.ReconstructLeft(sc.fhatP[:n+1], sc.fP[v][:last+1])
				s.Scheme.ReconstructLeft(sc.fhatM[:n+1], sc.fM[v][:last+1])
				fl := sc.fhatP[0] + sc.fhatM[n]
				flat := v*s.np + ln.Start
				for i := 0; i < n; i++ {
					fr := sc.fhatP[i+1] + sc.fhatM[n-1-i]
					dst[flat] += -(fr - fl) * dxi
					fl = fr
					flat += ln.Stride
				}
			}
		}
	}

	// Pass 3: parabolic terms (viscosity / conduction), when enabled.
	if parabolic {
		s.addParabolic(x, dst)
	}
}

// split stores padded cell jp's split fluxes of flux f and value u under
// speed a: f+ at jp, f- at the reversed index len(fm)-1-jp.
func split(fp, fm []float64, jp int, f, u, a float64) {
	fp[jp] = 0.5 * (f + a*u)
	fm[len(fm)-1-jp] = 0.5 * (f - a*u)
}

// LocalMaxWave returns this system's per-axis maximum wave speeds for the
// state x — the local contribution a distributed solver reduces globally
// before setting AlphaOverride.
func (s *EulerSystem) LocalMaxWave(x la.Vec) [3]float64 {
	var q [5]float64
	var out [3]float64
	for idx := 0; idx < s.np; idx++ {
		for v := 0; v < s.nvar; v++ {
			q[v] = x[v*s.np+idx]
		}
		pt := s.Gas.Unpack(q[:s.nvar], s.d, s.bg[0][idx], s.bg[1][idx], s.bg[2][idx])
		for ai, ax := range s.axes {
			w := s.Gas.MaxWave(pt, ai)
			if math.IsNaN(w) {
				// `w > out` is false for a NaN wave speed, which would
				// silently drop the corrupted cell and underestimate the
				// global alpha; poison the axis instead so the reduction
				// surfaces the corruption.
				out[ax] = math.NaN()
				continue
			}
			if w > out[ax] {
				out[ax] = w
			}
		}
	}
	return out
}

// MaxDt returns the CFL-stable step size for the state x, or 0 when the
// state is corrupted (a NaN wave speed): no step is stable then.
func (s *EulerSystem) MaxDt(x la.Vec, cfl float64) float64 {
	var q [5]float64
	dt := 1e300
	for idx := 0; idx < s.np; idx++ {
		for v := 0; v < s.nvar; v++ {
			q[v] = x[v*s.np+idx]
		}
		pt := s.Gas.Unpack(q[:s.nvar], s.d, s.bg[0][idx], s.bg[1][idx], s.bg[2][idx])
		for ai, ax := range s.axes {
			w := s.Gas.MaxWave(pt, ai)
			if math.IsNaN(w) {
				// A NaN wave speed fails `w > 0` and would be skipped,
				// leaving dt at its huge initial value — the opposite of
				// stable. A corrupted state has no stable step.
				return 0
			}
			if w > 0 {
				if d := cfl * s.Grid.Dx[ax] / w; d < dt {
					dt = d
				}
			}
		}
	}
	return dt
}

// InitialState returns the bubble initial condition as a state vector.
func (s *EulerSystem) InitialState(b euler.BubbleSpec) la.Vec {
	g := s.Grid
	x0 := la.NewVec(s.Dim())
	q := make([]float64, s.nvar)
	for k := 0; k < g.N[2]; k++ {
		for j := 0; j < g.N[1]; j++ {
			for i := 0; i < g.N[0]; i++ {
				idx := g.Index(i, j, k)
				var pos [3]float64
				coords := [3]int{i, j, k}
				for ai, ax := range s.axes {
					pos[ai] = g.Coord(ax, coords[ax])
				}
				var z float64
				if s.GravAxis >= 0 {
					z = g.Coord(s.GravAxis, coords[s.GravAxis])
				}
				s.Gas.InitialPerturbation(b, pos, z, s.d, q)
				for v := 0; v < s.nvar; v++ {
					x0[v*s.np+idx] = q[v]
				}
			}
		}
	}
	return x0
}

// SetParabolic enables the parabolic part of the hyperbolic-parabolic
// system (HyPar's second operator class): kinematic viscosity nu diffusing
// the velocity components and thermal diffusivity kappa diffusing the
// temperature *perturbation* (conduction relative to the balanced
// background, so the hydrostatic rest state remains an exact steady state).
// Both use second-order central differences with the axis BCs.
func (s *EulerSystem) SetParabolic(nu, kappa float64) {
	s.Nu, s.Kappa = nu, kappa
	if s.scr.tp == nil {
		s.scr.tp = make([]float64, s.np)
	}
}

// addParabolic accumulates nu*Lap(u_i) into the momentum tendencies (times
// rho) and kappa*Lap(T') into the energy tendency (times rho*Cv), all with
// the same ghost-cell boundary treatment as the fluxes. It reads the
// velocities and T' that Eval's pass 1 left in the scratch.
func (s *EulerSystem) addParabolic(x la.Vec, dst la.Vec) {
	g := s.Grid
	sc := s.scr
	cv := s.Gas.R / (s.Gas.Gamma - 1)
	for _, ax := range s.axes {
		n := g.N[ax]
		bc := s.BCs[ax]
		ami := s.axisIndexOf(ax)
		coef := 1 / (g.Dx[ax] * g.Dx[ax])
		for _, ln := range s.lines[ax] {
			for i := 0; i < n; i++ {
				flat := ln.Start + i*ln.Stride
				li, lSign := ghostIndex(i-1, n, bc)
				ri, rSign := ghostIndex(i+1, n, bc)
				lFlat := ln.Start + li*ln.Stride
				rFlat := ln.Start + ri*ln.Stride
				rho := s.bg[0][flat] + x[flat]
				// Fields 0..d-1 are the velocities, field d is T'.
				for f := 0; f <= s.d; f++ {
					uf := sc.tp
					if f < s.d {
						uf = sc.vel[f]
					}
					lv, rv := uf[lFlat], uf[rFlat]
					// Normal velocity flips sign across a wall.
					if f == ami {
						lv *= lSign
						rv *= rSign
					}
					lap := coef * (lv - 2*uf[flat] + rv)
					if f < s.d {
						if s.Nu != 0 {
							dst[(1+f)*s.np+flat] += s.Nu * rho * lap
						}
					} else if s.Kappa != 0 {
						dst[(1+s.d)*s.np+flat] += s.Kappa * rho * cv * lap
					}
				}
			}
		}
	}
}

// Integrals returns the domain integrals of each conserved perturbation
// variable (sum * cell volume) — the conservation monitor: with periodic/
// wall boundaries the mass and momentum integrals are invariants of the
// semi-discrete system, so their drift measures corruption or a scheme bug.
func (s *EulerSystem) Integrals(x la.Vec) []float64 {
	vol := 1.0
	for _, ax := range s.axes {
		vol *= s.Grid.Dx[ax]
	}
	out := make([]float64, s.nvar)
	for v := 0; v < s.nvar; v++ {
		var sum float64
		for _, val := range s.VarSlice(x, v) {
			sum += val
		}
		out[v] = sum * vol
	}
	return out
}
