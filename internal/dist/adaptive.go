package dist

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/mpi"
	"repro/internal/ode"
	"repro/internal/weno"
)

// AdaptiveConfig describes a distributed *adaptive* Burgers solve with
// optional integration-based double-checking — the full pipeline of the
// paper on the goroutine cluster: every rank computes its block's stages
// after halo exchanges, the controller's scaled error and the detector's
// second estimate are finished with Allreduce, and accept/reject decisions
// are taken in lockstep on every rank. The solve is Heun-Euler 2(1) in time
// and WENO5 in space under the tolerances and step cap below, on a cluster
// with mpi.DefaultModel's costs.
type AdaptiveConfig struct {
	Ranks int
	N     int
	TEnd  float64
	IBDC  bool // enable distributed integration-based double-checking
}

// The distributed adaptive solve's settings.
const (
	adaptiveTol = 1e-4 // absolute and relative tolerance
	adaptiveCFL = 0.3  // step cap as a fraction of dx
	adaptiveQ   = 3    // BDF order of the double-check
)

// AdaptiveResult reports the outcome of a distributed adaptive run.
type AdaptiveResult struct {
	Blocks       [][]float64
	Steps        int
	RejClassic   int
	RejDetector  int
	Seconds      float64
	FinalT       float64
	FinalH       float64   // the step size the next step would take (at most the CFL cap)
	AcceptedSErr []float64 // per-step classic scaled errors (rank 0's record)
}

// Field concatenates the blocks.
func (r *AdaptiveResult) Field() []float64 {
	var out []float64
	for _, b := range r.Blocks {
		out = append(out, b...)
	}
	return out
}

// RunAdaptiveBurgers executes the distributed adaptive solve. Every rank
// runs its own ode.Integrator — the serial protected-step loop — over its
// block, with a right-hand side that exchanges halos and reduces the
// splitting speed, and a controller whose norms are finished across ranks
// (control.Controller.Ranks). Every rank therefore scores the same scaled
// errors and takes the same accept/reject decisions.
func RunAdaptiveBurgers(cfg AdaptiveConfig) (*AdaptiveResult, error) {
	if cfg.Ranks < 1 || cfg.N < cfg.Ranks*(weno.Ghost+1) {
		return nil, fmt.Errorf("dist: need N >= Ranks*%d", weno.Ghost+1)
	}
	dx := 1.0 / float64(cfg.N)
	maxStep := adaptiveCFL * dx
	bounds := make([]int, cfg.Ranks+1)
	for p := 0; p <= cfg.Ranks; p++ {
		bounds[p] = p * cfg.N / cfg.Ranks
	}
	res := &AdaptiveResult{Blocks: make([][]float64, cfg.Ranks)}
	var runErr error

	comms := mpi.Run(cfg.Ranks, mpi.DefaultModel(), func(c *mpi.Comm) {
		rank := c.Rank()
		lo, hi := bounds[rank], bounds[rank+1]
		nl := hi - lo
		g := weno.Ghost
		u := make(la.Vec, nl)
		for i := range u {
			u[i] = initialProfile(lo+i, cfg.N)
		}
		pad := make([]float64, nl+2*g)
		fP := make([]float64, nl+2*g)
		fM := make([]float64, nl+2*g)
		fhatP := make([]float64, nl+1)
		fhatM := make([]float64, nl+1)
		left := (rank + cfg.Ranks - 1) % cfg.Ranks
		right := (rank + 1) % cfg.Ranks
		sendL := make([]float64, g)
		sendR := make([]float64, g)
		recvL := make([]float64, g)
		recvR := make([]float64, g)

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
				c.Send(left, sendL)
				c.Send(left, sendR)
				c.Recv(left, recvR)
				c.Recv(left, recvL)
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
		globalMaxAbs := func(src []float64) float64 {
			local := 0.0
			for _, v := range src {
				if a := math.Abs(v); a > local {
					local = a
				}
			}
			return c.AllreduceScalar(local, mpi.Max)
		}
		// The rank's block of the global right-hand side: a collective call
		// that every rank makes in lockstep.
		rhs := ode.Func{N: nl, F: func(_ float64, src, dst la.Vec) {
			alpha := globalMaxAbs(src)
			fillPad(src)
			rhsLocal(pad, fP, fM, fhatP, fhatM, dst, alpha, dx)
			c.Compute(float64(nl) * 150)
		}}

		in := &ode.Integrator{
			Tab:     ode.HeunEuler(),
			Ctrl:    ode.DefaultController(adaptiveTol, adaptiveTol),
			MaxStep: maxStep,
		}
		in.Ctrl.Ranks = comm{c}
		if cfg.IBDC {
			// IBDC pinned at q = adaptiveQ with adaptation off: the
			// fixed-order check, with Algorithm 1's false-positive rescue.
			d := core.NewIBDC()
			d.NoAdapt = true
			d.SetOrder(adaptiveQ)
			in.Validator = d
		}
		if rank == 0 {
			in.OnTrial = func(tr *ode.Trial) {
				if tr.Accepted {
					res.AcceptedSErr = append(res.AcceptedSErr, tr.SErr1)
				}
			}
		}
		in.Init(rhs, 0, cfg.TEnd, u, maxStep/4)
		_, err := in.Run()
		res.Blocks[rank] = in.X()
		if rank == 0 {
			runErr = err
			res.Steps = in.Stats.Steps
			res.RejClassic = in.Stats.RejectedClassic
			res.RejDetector = in.Stats.RejectedValidator
			res.FinalT = in.T()
			res.FinalH = in.StepSize()
		}
	})
	for _, c := range comms {
		if c.Clock() > res.Seconds {
			res.Seconds = c.Clock()
		}
	}
	return res, runErr
}

// comm finishes the controller's norms over the ranks with Allreduce.
type comm struct{ c *mpi.Comm }

// Sum implements control.Reducer.
func (r comm) Sum(v []float64) { r.c.Allreduce(v, mpi.Sum) }

// Max implements control.Reducer.
func (r comm) Max(v []float64) { r.c.Allreduce(v, mpi.Max) }
