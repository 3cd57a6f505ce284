package dist

import (
	"fmt"
	"math"

	"repro/internal/euler"
	"repro/internal/grid"
	"repro/internal/la"
	"repro/internal/mpi"
	"repro/internal/pde"
	"repro/internal/weno"
)

// Euler2DConfig describes a distributed 2-D compressible-Euler solve on a
// fully periodic, gravity-free box — the multi-dimensional analog of the
// paper's distributed HyPar runs, stripped to the parts that can be
// validated bit-for-bit against the serial solver: y-slab decomposition,
// per-stage halo exchanges of three WENO ghost rows, and per-axis Allreduce
// of the Rusanov splitting speeds. The cluster has mpi.DefaultModel's
// costs.
type Euler2DConfig struct {
	Ranks int
	N     int     // global N x N grid
	Steps int     // fixed Heun (RK2) steps
	H     float64 // step size (choose <= ~0.2*dx/c)
}

// Euler2DResult carries each rank's interior block (variable-major rows).
type Euler2DResult struct {
	Blocks  [][]la.Vec // [rank][var] -> nx*nl values, bottom slab first
	Bounds  []int
	Seconds float64
}

// pulseInit fills the perturbation state with a smooth density/pressure
// pulse (full variables minus the uniform G=0 background). Coordinates are
// derived from *global* integer indices so every rank computes bit-
// identical initial values regardless of its block offset.
func pulseInit(sys *pde.EulerSystem, g *grid.Grid, loRow, nGlobal int) la.Vec {
	x := la.NewVec(sys.Dim())
	np := g.Points()
	dx := 1.0 / float64(nGlobal)
	gBand := weno.Ghost
	rhoF := x[0*np : 1*np]
	eF := x[3*np : 4*np]
	for j := 0; j < g.N[1]; j++ {
		gj := loRow - gBand + j // global row (may wrap)
		gj = ((gj % nGlobal) + nGlobal) % nGlobal
		py := (float64(gj) + 0.5) * dx
		for i := 0; i < g.N[0]; i++ {
			px := (float64(i) + 0.5) * dx
			r2 := (px-0.5)*(px-0.5) + (py-0.5)*(py-0.5)
			bump := 0.2 * math.Exp(-100*r2)
			idx := g.Index(i, j, 0)
			rhoF[idx] = bump           // rho' on top of rho = 1
			eF[idx] = bump / (1.4 - 1) // p' = bump, E' = p'/(gamma-1)
		}
	}
	return x
}

// gasFree returns the gravity-free uniform-background gas (rho = p = 1).
func gasFree() euler.Gas {
	return euler.Gas{Gamma: 1.4, R: 1, G: 0, P0: 1, Theta0: 1}
}

// RunEuler2D executes the distributed solve. Every rank owns an extended
// local grid with three halo rows above and below its slab; halos are
// refreshed from the neighbors before every stage evaluation, and the
// outermost rows' tendencies are discarded, so the interior tendencies are
// computed from exactly the data the serial solver sees.
func RunEuler2D(cfg Euler2DConfig) (*Euler2DResult, error) {
	gBand := weno.Ghost
	if cfg.Ranks < 1 || cfg.N/cfg.Ranks < gBand {
		return nil, fmt.Errorf("dist: need at least %d rows per rank", gBand)
	}
	n := cfg.N
	dx := 1.0 / float64(n)
	bounds := grid.Decompose(n, cfg.Ranks)
	res := &Euler2DResult{Blocks: make([][]la.Vec, cfg.Ranks), Bounds: bounds}

	comms := mpi.Run(cfg.Ranks, mpi.DefaultModel(), func(c *mpi.Comm) {
		rank := c.Rank()
		lo, hi := bounds[rank], bounds[rank+1]
		nl := hi - lo
		ext := nl + 2*gBand
		// Extended local grid, origin shifted so global y coordinates are
		// preserved for every row (background is uniform, but coordinates
		// feed the initial condition).
		lg := &grid.Grid{
			N:      [3]int{n, ext, 1},
			Origin: [3]float64{dx / 2, (float64(lo-gBand) + 0.5) * dx, 0},
			Dx:     [3]float64{dx, dx, 1},
		}
		sys := pde.NewEulerSystem(lg, gasFree(), weno.Weno5{})
		sys.BCs = [3]pde.BC{pde.Periodic, pde.Periodic, pde.Periodic}
		np := lg.Points()
		nvar := 4
		x := pulseInit(sys, lg, lo, n)

		dst := la.NewVec(sys.Dim())
		k1 := la.NewVec(sys.Dim())
		stage := la.NewVec(sys.Dim())
		alpha := make([]float64, 3)
		sys.AlphaOverride = alpha

		up := (rank + 1) % cfg.Ranks
		down := (rank + cfg.Ranks - 1) % cfg.Ranks
		rowBand := gBand * n // values per halo band per variable
		sendUp := make([]float64, rowBand*nvar)
		sendDown := make([]float64, rowBand*nvar)
		recvUp := make([]float64, rowBand*nvar)
		recvDown := make([]float64, rowBand*nvar)

		pack := func(xv la.Vec, firstRow int, buf []float64) {
			for v := 0; v < nvar; v++ {
				for r := 0; r < gBand; r++ {
					copy(buf[(v*gBand+r)*n:(v*gBand+r+1)*n],
						xv[v*np+(firstRow+r)*n:v*np+(firstRow+r)*n+n])
				}
			}
		}
		unpack := func(xv la.Vec, firstRow int, buf []float64) {
			for v := 0; v < nvar; v++ {
				for r := 0; r < gBand; r++ {
					copy(xv[v*np+(firstRow+r)*n:v*np+(firstRow+r)*n+n],
						buf[(v*gBand+r)*n:(v*gBand+r+1)*n])
				}
			}
		}
		exchange := func(xv la.Vec) {
			if cfg.Ranks == 1 {
				// Wrap locally: top halo = first interior rows, bottom halo
				// = last interior rows.
				pack(xv, gBand, sendDown)        // my bottom interior rows
				pack(xv, gBand+nl-gBand, sendUp) // my top interior rows
				unpack(xv, 0, sendUp)
				unpack(xv, gBand+nl, sendDown)
				return
			}
			pack(xv, gBand, sendDown)        // bottom interior rows -> down
			pack(xv, gBand+nl-gBand, sendUp) // top interior rows -> up
			if up == down {
				c.Send(up, sendDown)
				c.Send(up, sendUp)
				// Peer's bottom rows are my top halo; its top rows are my
				// bottom halo (FIFO pairing as in the 1-D case).
				c.Recv(up, recvUp)   // peer's bottom interior
				c.Recv(up, recvDown) // peer's top interior
				unpack(xv, gBand+nl, recvUp)
				unpack(xv, 0, recvDown)
				return
			}
			c.Send(down, sendDown)
			c.Send(up, sendUp)
			c.Recv(up, recvUp)     // up neighbor's bottom rows -> my top halo
			c.Recv(down, recvDown) // down neighbor's top rows -> my bottom halo
			unpack(xv, gBand+nl, recvUp)
			unpack(xv, 0, recvDown)
		}
		reduceAlpha := func(xv la.Vec) {
			local := sys.LocalMaxWave(xv)
			buf := []float64{local[0], local[1], local[2]}
			c.Allreduce(buf, mpi.Max)
			copy(alpha, buf)
		}
		applyInterior := func(xv, dv la.Vec, h float64) {
			for v := 0; v < nvar; v++ {
				base := v * np
				for r := gBand; r < gBand+nl; r++ {
					row := base + r*n
					for i := 0; i < n; i++ {
						xv[row+i] += h * dv[row+i]
					}
				}
			}
		}

		for s := 0; s < cfg.Steps; s++ {
			exchange(x)
			reduceAlpha(x)
			sys.Eval(0, x, k1)
			c.Compute(float64(np*nvar) * 400)
			stage.CopyFrom(x)
			applyInterior(stage, k1, cfg.H)
			exchange(stage)
			reduceAlpha(stage)
			sys.Eval(0, stage, dst)
			c.Compute(float64(np*nvar) * 400)
			// u += h/2 (k1 + k2) on the interior.
			applyInterior(x, k1, cfg.H/2)
			applyInterior(x, dst, cfg.H/2)
		}

		// Export interior blocks.
		out := make([]la.Vec, nvar)
		for v := 0; v < nvar; v++ {
			out[v] = la.NewVec(n * nl)
			for r := 0; r < nl; r++ {
				copy(out[v][r*n:(r+1)*n], x[v*np+(gBand+r)*n:v*np+(gBand+r)*n+n])
			}
		}
		res.Blocks[rank] = out
	})
	for _, c := range comms {
		if c.Clock() > res.Seconds {
			res.Seconds = c.Clock()
		}
	}
	return res, nil
}

// Field assembles the global field of one variable from the blocks.
func (r *Euler2DResult) Field(v int) []float64 {
	var out []float64
	for _, b := range r.Blocks {
		out = append(out, b[v]...)
	}
	return out
}
