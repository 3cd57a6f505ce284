package dist

import (
	"fmt"
	"math"

	"repro/internal/control"
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
// are taken in lockstep on every rank. The solve is WENO5 in space under
// the tolerances and step cap below, on a cluster with mpi.DefaultModel's
// costs.
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
	adaptiveQ   = 3    // BDF order cap of the double-check
)

// AdaptiveResult reports the outcome of a distributed adaptive run.
type AdaptiveResult struct {
	Blocks       [][]float64
	Steps        int
	RejClassic   int
	RejDetector  int
	Seconds      float64
	FinalT       float64
	FinalH       float64
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

// RunAdaptiveBurgers executes the distributed adaptive solve. All ranks
// make identical accept/reject decisions because every norm is finished
// from globally reduced partial sums.
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
		k1 := make(la.Vec, nl)
		k2 := make(la.Vec, nl)
		stage := make(la.Vec, nl)
		prop := make(la.Vec, nl)
		errv := make(la.Vec, nl)
		w := make(la.Vec, nl)
		est := make(la.Vec, nl)
		fProp := make(la.Vec, nl)
		var bdf ode.BDFEstimator // per-rank workspace: steady-state steps allocate nothing
		hist := ode.NewHistory(adaptiveQ+2, nl)
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
		// globalWRMS finishes a scaled norm from local partials.
		globalWRMS := func(e, wts la.Vec) float64 {
			sumsq, n := la.WRMSPartial(e, wts)
			part := [2]float64{sumsq, float64(n)}
			c.Allreduce(part[:], mpi.Sum)
			return la.WRMSFinish(part[0], int(part[1]))
		}
		rhs := func(src la.Vec, dst la.Vec) {
			alpha := globalMaxAbs(src)
			fillPad(src)
			rhsLocal(pad, fP, fM, fhatP, fhatM, dst, alpha, dx)
			c.Compute(float64(nl) * 150)
		}

		t := 0.0
		h := maxStep / 4
		var latch control.RescueLatch // FP self-detection state (Algorithm 1)
		hist.Push(0, 0, u)
		for t < cfg.TEnd-1e-12 {
			if h > maxStep {
				h = maxStep
			}
			if t+h > cfg.TEnd {
				h = cfg.TEnd - t
			}
			// Heun-Euler trial.
			rhs(u, k1)
			stage.CopyFrom(u)
			stage.AXPY(h, k1)
			rhs(stage, k2)
			prop.CopyFrom(u)
			prop.AXPY(h/2, k1)
			prop.AXPY(h/2, k2)
			errv.CopyFrom(k2)
			errv.Sub(k1)
			errv.Scale(h / 2)
			la.ErrWeights(w, prop, adaptiveTol, adaptiveTol)
			sErr := globalWRMS(errv, w)
			// The NaN-rejects rule and the step factors are the shared
			// control-package predicates; since sErr is identical on every
			// rank, the decision stays in lockstep.
			if control.ClassicReject(sErr) {
				if rank == 0 {
					res.RejClassic++
				}
				h *= control.ElementaryRejectFactor(sErr)
				continue
			}
			if cfg.IBDC && hist.Len() >= 1 && !latch.Rescued(sErr) {
				// A rescued sErr marks a recomputation reproducing the
				// identical classic error: Algorithm 1's false-positive
				// rescue, which accepts without re-running the check.
				q := ode.MaxBDFOrder(hist, adaptiveQ)
				rhs(prop, fProp)
				bdf.Estimate(est, hist, q, t+h, fProp)
				if sErr2 := globalWRMS(diffInto(est, prop, est), w); control.DetectorReject(sErr2) {
					if rank == 0 {
						res.RejDetector++
					}
					latch.Arm(sErr)
					// Lockstep recomputation at the same step size.
					continue
				}
			}
			latch.Disarm()
			u.CopyFrom(prop)
			t += h
			hist.Push(t, h, u)
			if rank == 0 {
				res.Steps++
				res.AcceptedSErr = append(res.AcceptedSErr, sErr)
			}
			h = h * control.ElementaryAcceptFactor(sErr)
		}
		res.Blocks[rank] = u
		if rank == 0 {
			res.FinalT = t
			res.FinalH = h
		}
	})
	for _, c := range comms {
		if c.Clock() > res.Seconds {
			res.Seconds = c.Clock()
		}
	}
	return res, nil
}

// diffInto computes dst = a - b (dst may alias a) and returns dst.
func diffInto(a, b, dst la.Vec) la.Vec {
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
	return dst
}
