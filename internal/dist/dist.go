// Package dist runs genuinely distributed method-of-lines solves on the
// mpi substrate — the communication pattern the paper's HyPar+PETSc stack
// performs on a real cluster: per-stage halo exchanges of WENO ghost cells,
// a per-stage Allreduce for the global Rusanov splitting speed, and a
// per-step Allreduce for the controller's scaled error norm. The Burgers
// solves start from problems.Burgers1D's initial state, and each rank's
// right-hand side equals that problem's serial one on its block bit for bit
// (the arithmetic is identical; only the data placement differs), so every
// rank count yields the single-rank solution bit for bit. That is the
// correctness backbone of the simulated-cluster scaling numbers in Table V
// / Figure 3.
package dist

import (
	"fmt"
	"math"

	"repro/internal/grid"
	"repro/internal/la"
	"repro/internal/mpi"
	"repro/internal/problems"
	"repro/internal/weno"
)

// BurgersConfig describes a distributed periodic inviscid Burgers solve,
// WENO5 in space, on a cluster with mpi.DefaultModel's costs.
type BurgersConfig struct {
	Ranks int
	N     int     // global points (at least Ranks*(weno.Ghost+1))
	Steps int     // fixed Heun (RK2) steps
	H     float64 // step size
}

// Result carries each rank's final block and the synchronized virtual time.
type Result struct {
	Blocks  [][]float64 // per-rank final fields, concatenating to the domain
	Bounds  []int       // block boundaries (len Ranks+1)
	Seconds float64     // simulated wall-clock of the slowest rank
}

// burgersBounds checks that every rank's block of an n-point periodic line
// is wider than the WENO ghost width and returns the block boundaries.
func burgersBounds(ranks, n int) ([]int, error) {
	if ranks < 1 || n < ranks*(weno.Ghost+1) {
		return nil, fmt.Errorf("dist: need N >= Ranks*%d, got N=%d Ranks=%d", weno.Ghost+1, n, ranks)
	}
	return grid.Decompose(n, ranks), nil
}

// burgersRank is one rank's block of the periodic Burgers WENO5 right-hand
// side that problems.Burgers1D(n, "weno5") evaluates serially. Eval is a
// collective call that every rank makes in lockstep: it reduces the Rusanov
// splitting speed over the ranks and exchanges the WENO ghost cells, then
// performs the serial Eval's operations on the rank's block, so the
// gathered blocks equal the serial result bit for bit.
type burgersRank struct {
	c           *mpi.Comm
	left, right int // neighbor ranks on the periodic line
	dx          float64

	pad, fP, fM                []float64 // padded field and split fluxes (nl+2*Ghost)
	fhatP, fhatM               []float64 // interface fluxes (nl+1)
	sendL, sendR, recvL, recvR []float64 // halos (Ghost each)
}

// newBurgersRank returns the right-hand side of c's block of nl points on
// a periodic line of n points.
func newBurgersRank(c *mpi.Comm, nl, n int) *burgersRank {
	g := weno.Ghost
	p := c.Size()
	return &burgersRank{
		c:     c,
		left:  (c.Rank() + p - 1) % p,
		right: (c.Rank() + 1) % p,
		dx:    1.0 / float64(n),
		pad:   make([]float64, nl+2*g),
		fP:    make([]float64, nl+2*g),
		fM:    make([]float64, nl+2*g),
		fhatP: make([]float64, nl+1),
		fhatM: make([]float64, nl+1),
		sendL: make([]float64, g),
		sendR: make([]float64, g),
		recvL: make([]float64, g),
		recvR: make([]float64, g),
	}
}

// Dim implements control.System: the rank's block size.
func (r *burgersRank) Dim() int { return len(r.fhatP) - 1 }

// Eval implements control.System for the rank's block u, writing the
// block's right-hand side to dst.
func (r *burgersRank) Eval(_ float64, u, dst la.Vec) {
	g := weno.Ghost
	nl := len(dst)
	alpha := r.globalMaxAbs(u)
	r.fillPad(u)
	// Rusanov splitting f±(u) = (u^2/2 ± alpha*u)/2, with f- reversed so
	// that it is reconstructed right-biased.
	for j := 0; j < nl+2*g; j++ {
		v := r.pad[j]
		fl := 0.5 * v * v
		r.fP[j] = 0.5 * (fl + alpha*v)
		r.fM[nl+2*g-1-j] = 0.5 * (fl - alpha*v)
	}
	var scheme weno.Weno5
	scheme.ReconstructLeft(r.fhatP, r.fP)
	scheme.ReconstructLeft(r.fhatM, r.fM)
	for i := 0; i < nl; i++ {
		fr := r.fhatP[i+1] + r.fhatM[nl-1-i]
		fl := r.fhatP[i] + r.fhatM[nl-i]
		dst[i] = -(fr - fl) / r.dx
	}
	r.c.Compute(float64(nl) * 150)
}

// globalMaxAbs returns max|u| over every rank's block.
func (r *burgersRank) globalMaxAbs(u []float64) float64 {
	local := 0.0
	for _, v := range u {
		if a := math.Abs(v); a > local {
			local = a
		}
	}
	return r.c.AllreduceScalar(local, mpi.Max)
}

// fillPad exchanges halos for the block u and assembles the padded line.
// With a single rank the halos wrap locally.
func (r *burgersRank) fillPad(u []float64) {
	g := weno.Ghost
	nl := len(u)
	pad := r.pad
	copy(pad[g:g+nl], u)
	if r.c.Size() == 1 {
		for j := 0; j < g; j++ {
			pad[j] = u[nl-g+j]
			pad[g+nl+j] = u[j]
		}
		return
	}
	copy(r.sendL, u[:g])
	copy(r.sendR, u[nl-g:])
	if r.left == r.right {
		// Two ranks: both neighbors are the same peer, so source matching
		// cannot tell the two halos apart. Rely on FIFO order instead: both
		// ranks send left edge first, right edge second. The peer's left
		// edge is my right halo and its right edge is my left halo.
		r.c.Send(r.left, r.sendL)
		r.c.Send(r.left, r.sendR)
		r.c.Recv(r.left, r.recvR) // peer's left edge
		r.c.Recv(r.left, r.recvL) // peer's right edge
		copy(pad[g+nl:], r.recvR)
		copy(pad[:g], r.recvL)
		return
	}
	r.c.Send(r.left, r.sendL)
	r.c.Send(r.right, r.sendR)
	r.c.Recv(r.left, r.recvL)
	r.c.Recv(r.right, r.recvR)
	copy(pad[:g], r.recvL)
	copy(pad[g+nl:], r.recvR)
}

// RunBurgers executes the distributed solve from problems.Burgers1D's
// initial state and returns the per-rank blocks.
func RunBurgers(cfg BurgersConfig) (*Result, error) {
	bounds, err := burgersBounds(cfg.Ranks, cfg.N)
	if err != nil {
		return nil, err
	}
	x0 := problems.Burgers1D(cfg.N, "weno5").X0
	res := &Result{Blocks: make([][]float64, cfg.Ranks), Bounds: bounds}

	comms := mpi.Run(cfg.Ranks, mpi.DefaultModel(), func(c *mpi.Comm) {
		lo, hi := bounds[c.Rank()], bounds[c.Rank()+1]
		nl := hi - lo
		sys := newBurgersRank(c, nl, cfg.N)
		u := x0[lo:hi].Clone()
		k1 := make(la.Vec, nl)
		k2 := make(la.Vec, nl)
		stage := make(la.Vec, nl)
		for step := 0; step < cfg.Steps; step++ {
			// Heun (RK2): k1 = f(u); k2 = f(u + h k1); u += h/2 (k1+k2).
			sys.Eval(0, u, k1)
			for i := range stage {
				stage[i] = u[i] + cfg.H*k1[i]
			}
			sys.Eval(0, stage, k2)
			for i := range u {
				u[i] += cfg.H / 2 * (k1[i] + k2[i])
			}
		}
		res.Blocks[c.Rank()] = u
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
