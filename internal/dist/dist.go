// Package dist runs genuinely distributed method-of-lines solves on the
// mpi substrate — the communication pattern the paper's HyPar+PETSc stack
// performs on a real cluster: per-stage halo exchanges of WENO ghost cells,
// a per-stage Allreduce for the global Rusanov splitting speed, and a
// per-step Allreduce for the controller's scaled error norm. The
// distributed solution is validated against the serial solver bit-for-bit
// (the arithmetic is identical; only the data placement differs), which is
// the correctness backbone of the simulated-cluster scaling numbers in
// Table V / Figure 3.
package dist

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/weno"
)

// BurgersConfig describes a distributed periodic inviscid Burgers solve,
// WENO5 in space, on a cluster with mpi.DefaultModel's costs.
type BurgersConfig struct {
	Ranks int
	N     int     // global points (must be >= Ranks * weno.Ghost-ish blocks)
	Steps int     // fixed Heun (RK2) steps
	H     float64 // step size
}

// Result carries each rank's final block and the synchronized virtual time.
type Result struct {
	Blocks  [][]float64 // per-rank final fields, concatenating to the domain
	Bounds  []int       // block boundaries (len Ranks+1)
	Seconds float64     // simulated wall-clock of the slowest rank
}

// initialProfile matches problems.Burgers1D's initial condition.
func initialProfile(i, n int) float64 {
	x := (float64(i) + 0.5) / float64(n)
	return 1 + 0.5*math.Sin(2*math.Pi*x)
}

// rhsLocal computes the Burgers WENO5 RHS for one rank's padded block,
// given the global splitting speed alpha. pad has nl+2*Ghost entries; dst
// gets nl.
func rhsLocal(pad, fP, fM, fhatP, fhatM, dst []float64, alpha, dx float64) {
	g := weno.Ghost
	nl := len(dst)
	for j := 0; j < nl+2*g; j++ {
		v := pad[j]
		fl := 0.5 * v * v
		fP[j] = 0.5 * (fl + alpha*v)
		fM[nl+2*g-1-j] = 0.5 * (fl - alpha*v)
	}
	var scheme weno.Weno5
	scheme.ReconstructLeft(fhatP, fP)
	scheme.ReconstructLeft(fhatM, fM)
	for i := 0; i < nl; i++ {
		fr := fhatP[i+1] + fhatM[nl-1-i]
		fl := fhatP[i] + fhatM[nl-i]
		dst[i] = -(fr - fl) / dx
	}
}

// RunBurgers executes the distributed solve and returns the per-rank blocks.
func RunBurgers(cfg BurgersConfig) (*Result, error) {
	if cfg.Ranks < 1 || cfg.N < cfg.Ranks*(weno.Ghost+1) {
		return nil, fmt.Errorf("dist: need N >= Ranks*%d, got N=%d Ranks=%d", weno.Ghost+1, cfg.N, cfg.Ranks)
	}
	bounds := grid.Decompose(cfg.N, cfg.Ranks)
	res := &Result{Blocks: make([][]float64, cfg.Ranks), Bounds: bounds}
	dx := 1.0 / float64(cfg.N)
	g := weno.Ghost

	comms := mpi.Run(cfg.Ranks, mpi.DefaultModel(), func(c *mpi.Comm) {
		rank := c.Rank()
		lo, hi := bounds[rank], bounds[rank+1]
		nl := hi - lo
		u := make([]float64, nl)
		for i := range u {
			u[i] = initialProfile(lo+i, cfg.N)
		}
		pad := make([]float64, nl+2*g)
		fP := make([]float64, nl+2*g)
		fM := make([]float64, nl+2*g)
		fhatP := make([]float64, nl+1)
		fhatM := make([]float64, nl+1)
		k1 := make([]float64, nl)
		k2 := make([]float64, nl)
		stage := make([]float64, nl)
		left := (rank + cfg.Ranks - 1) % cfg.Ranks
		right := (rank + 1) % cfg.Ranks
		sendL := make([]float64, g)
		sendR := make([]float64, g)
		recvL := make([]float64, g)
		recvR := make([]float64, g)

		// fillPad exchanges halos for the field in src and assembles the
		// padded line. With a single rank the halos wrap locally.
		fillPad := func(src []float64) {
			copy(pad[g:g+nl], src)
			if cfg.Ranks == 1 {
				for j := 0; j < g; j++ {
					pad[j] = src[nl-g+j]
					pad[g+nl+j] = src[j]
				}
				return
			}
			copy(sendL, src[:g])
			copy(sendR, src[nl-g:])
			if left == right {
				// Two ranks: both neighbors are the same peer, so source
				// matching cannot tell the two halos apart. Rely on FIFO
				// order instead: both ranks send left edge first, right
				// edge second. The peer's left edge is my right halo and
				// its right edge is my left halo.
				c.Send(left, sendL)
				c.Send(left, sendR)
				c.Recv(left, recvR) // peer's left edge
				c.Recv(left, recvL) // peer's right edge
				copy(pad[g+nl:], recvR)
				copy(pad[:g], recvL)
				return
			}
			c.Send(left, sendL)
			c.Send(right, sendR)
			c.Recv(left, recvL)
			c.Recv(right, recvR)
			copy(pad[:g], recvL)
			copy(pad[g+nl:], recvR)
		}

		// globalAlpha computes max|u| across all ranks.
		globalAlpha := func(src []float64) float64 {
			local := 0.0
			for _, v := range src {
				if a := math.Abs(v); a > local {
					local = a
				}
			}
			return c.AllreduceScalar(local, mpi.Max)
		}

		for step := 0; step < cfg.Steps; step++ {
			// Heun (RK2): k1 = f(u); k2 = f(u + h k1); u += h/2 (k1+k2).
			alpha := globalAlpha(u)
			fillPad(u)
			rhsLocal(pad, fP, fM, fhatP, fhatM, k1, alpha, dx)
			c.Compute(float64(nl) * 150)
			for i := range stage {
				stage[i] = u[i] + cfg.H*k1[i]
			}
			alpha2 := globalAlpha(stage)
			fillPad(stage)
			rhsLocal(pad, fP, fM, fhatP, fhatM, k2, alpha2, dx)
			c.Compute(float64(nl) * 150)
			for i := range u {
				u[i] += cfg.H / 2 * (k1[i] + k2[i])
			}
		}
		res.Blocks[rank] = u
	})
	for _, c := range comms {
		if c.Clock() > res.Seconds {
			res.Seconds = c.Clock()
		}
	}
	return res, nil
}

// Field concatenates the per-rank blocks into the global field.
func (r *Result) Field() []float64 {
	var out []float64
	for _, b := range r.Blocks {
		out = append(out, b...)
	}
	return out
}
