// Package scaling reproduces the paper's scalability experiments (Table V
// and Figure 3): the per-step and per-double-check execution time of the
// protected adaptive solver on a simulated cluster of 64-4096 cores, and
// the relative time and memory overheads of LBDC and IBDC against the
// classic adaptive controller.
//
// Each simulated rank is a goroutine owning a block of the global bubble
// grid. A step performs the real communication pattern of the distributed
// solver — halo exchanges per stage and the Allreduce behind the WRMS error
// norm — on real local buffers, while arithmetic volume is charged to the
// rank's virtual clock through the cluster cost model. Double-checking adds
// its own local AXPY work and one more Allreduce per step, exactly the
// communication structure §VI-C describes.
package scaling

import (
	"fmt"
	"math"

	"repro/internal/mpi"
)

// Detector selects the protection mechanism being timed.
type Detector string

// The mechanisms of Table V / Figure 3.
const (
	Classic     Detector = "classic"
	LBDC        Detector = "lbdc"
	IBDC        Detector = "ibdc"
	Replication Detector = "replication"
)

// The modelled solver: the 3-D bubble's conserved variables, a pair
// without first-same-as-last reuse (every stage is evaluated fresh), the
// double-check at Algorithm 1's order cap, and the arithmetic charged per
// stage on a cluster with mpi.DefaultModel's costs.
const (
	nVars      = 5 // conserved variables per point
	checkOrder = 3 // double-checking order q
	// flopsPerPointPerStage models the WENO5 flux evaluation cost per grid
	// point per variable.
	flopsPerPointPerStage = 400
	// serialFlopsPerStage models the per-rank non-parallelizable work per
	// stage — boundary handling, pack/unpack, bookkeeping (~2.5 ms per
	// stage: the Amdahl fraction §VI-C blames for the overhead's decrease
	// with core count).
	serialFlopsPerStage = 5e6
)

// Config describes one scaling run.
type Config struct {
	GlobalN [3]int // global grid (the paper: 64^3)
	Stages  int    // N_k of the embedded pair
	Det     Detector
	Cores   int
	Steps   int     // accepted steps to simulate
	FPRate  float64 // fraction of steps recomputed due to double-check FPs
}

func (c *Config) defaults() {
	if c.GlobalN == ([3]int{}) {
		c.GlobalN = [3]int{64, 64, 64}
	}
	if c.Stages == 0 {
		c.Stages = 2
	}
	if c.Cores == 0 {
		c.Cores = 512
	}
	if c.Steps == 0 {
		c.Steps = 50
	}
}

// Result reports the simulated timings and per-rank memory.
type Result struct {
	Cores         int
	StepSeconds   float64 // simulated time spent in steps (max over ranks)
	CheckSeconds  float64 // simulated time spent in double-checking
	SolverBytes   int64   // per-rank solver state
	DetectorBytes int64   // per-rank detector state
}

// TimeOverheadPct returns the relative time overhead of the detector.
func (r Result) TimeOverheadPct() float64 {
	if r.StepSeconds == 0 {
		return 0
	}
	return 100 * r.CheckSeconds / r.StepSeconds
}

// MemOverheadPct returns the relative per-rank memory overhead.
func (r Result) MemOverheadPct() float64 {
	if r.SolverBytes == 0 {
		return 0
	}
	return 100 * float64(r.DetectorBytes) / float64(r.SolverBytes)
}

// factor3 splits p into three near-equal factors (px >= py >= pz).
func factor3(p int) [3]int {
	best := [3]int{p, 1, 1}
	bestScore := math.Inf(1)
	for a := 1; a*a*a <= p; a++ {
		if p%a != 0 {
			continue
		}
		q := p / a
		for b := a; b*b <= q; b++ {
			if q%b != 0 {
				continue
			}
			cc := q / b
			// Prefer balanced factors: minimize max/min ratio.
			score := float64(cc) / float64(a)
			if score < bestScore {
				bestScore = score
				best = [3]int{cc, b, a}
			}
		}
	}
	return best
}

// Run executes the scaling simulation and aggregates per-rank clocks.
func Run(cfg Config) (Result, error) {
	cfg.defaults()
	switch cfg.Det {
	case Classic, LBDC, IBDC, Replication:
	default:
		return Result{}, fmt.Errorf("scaling: unknown detector %q", cfg.Det)
	}
	procs := factor3(cfg.Cores)
	local := [3]int{}
	for ax := 0; ax < 3; ax++ {
		local[ax] = (cfg.GlobalN[ax] + procs[ax] - 1) / procs[ax]
		if local[ax] < 1 {
			local[ax] = 1
		}
	}
	localPts := local[0] * local[1] * local[2]

	// Per-rank memory accounting (bytes).
	ghost := 3
	surface := 2 * ghost * (local[1]*local[2] + local[0]*local[2] + local[0]*local[1])
	solverVecs := cfg.Stages + 2
	solverBytes := int64(8 * nVars * (solverVecs*localPts + surface))
	var detBytes int64
	switch cfg.Det {
	case LBDC:
		detBytes = int64(8 * nVars * (checkOrder + 1) * localPts) // q history + scratch
	case IBDC:
		detBytes = int64(8 * nVars * checkOrder * localPts) // q-1 history + scratch
	case Replication:
		detBytes = solverBytes // a full second copy of the solver state
	}

	stepTimes := make([]float64, cfg.Cores)
	checkTimes := make([]float64, cfg.Cores)

	stageFlops := flopsPerPointPerStage*float64(localPts*nVars) + serialFlopsPerStage
	haloCount := 2 * ghost * nVars // slabs per face scale with the face area below

	comms := mpi.Run(cfg.Cores, mpi.DefaultModel(), func(c *mpi.Comm) {
		r := c.Rank()
		// Rank coordinates in the process grid.
		rx := r % procs[0]
		ry := (r / procs[0]) % procs[1]
		rz := r / (procs[0] * procs[1])
		coords := [3]int{rx, ry, rz}
		// Real halo buffers per axis.
		var sendBuf, recvBuf [3][]float64
		for ax := 0; ax < 3; ax++ {
			faces := [3]int{local[1] * local[2], local[0] * local[2], local[0] * local[1]}
			n := haloCount * faces[ax]
			sendBuf[ax] = make([]float64, n)
			recvBuf[ax] = make([]float64, n)
		}
		// Local state for the double-check AXPYs (real data).
		state := make([]float64, localPts*nVars)
		est := make([]float64, localPts*nVars)
		for i := range state {
			state[i] = float64(i%97) * 1e-3
		}

		neighbor := func(ax, dir int) int {
			nc := coords
			nc[ax] = (nc[ax] + dir + procs[ax]) % procs[ax]
			return nc[0] + procs[0]*(nc[1]+procs[1]*nc[2])
		}

		exchangeHalos := func() {
			for ax := 0; ax < 3; ax++ {
				if procs[ax] == 1 {
					continue
				}
				right := neighbor(ax, 1)
				left := neighbor(ax, -1)
				// Exchange with both neighbors; ordering is deadlock-free
				// thanks to buffered mailboxes.
				c.Send(right, sendBuf[ax])
				c.Send(left, sendBuf[ax])
				c.Recv(left, recvBuf[ax])
				c.Recv(right, recvBuf[ax])
			}
		}

		wrmsAllreduce := func() {
			// Local partial sums of the scaled error norm.
			c.Compute(4 * float64(localPts*nVars))
			part := [2]float64{1, float64(localPts * nVars)}
			c.Allreduce(part[:], mpi.Sum)
		}

		doStep := func() {
			for s := 0; s < cfg.Stages; s++ {
				exchangeHalos()
				c.Compute(stageFlops)
			}
			// Error estimate assembly + weights.
			c.Compute(6 * float64(localPts*nVars))
			wrmsAllreduce()
		}
		doStepReplica := doStep

		doCheck := func() {
			switch cfg.Det {
			case Classic:
				return
			case Replication:
				// The replica recomputes the entire step.
				doStepReplica()
				return
			}
			// Second-estimate assembly: (order+1) AXPYs over the state.
			c.Compute(2 * float64(checkOrder+1) * float64(localPts*nVars))
			for i := range est {
				est[i] = state[i] * 0.5
			}
			wrmsAllreduce()
		}

		for step := 0; step < cfg.Steps; step++ {
			t0 := c.Clock()
			doStep()
			t1 := c.Clock()
			doCheck()
			t2 := c.Clock()
			stepTimes[r] += t1 - t0
			checkTimes[r] += t2 - t1
			// False positives recompute the step; charge the extra step to
			// the detector, as the paper's overhead accounting does. The
			// schedule fires whenever the cumulative expected FP count
			// crosses an integer.
			if cfg.Det != Classic && cfg.FPRate > 0 &&
				int(float64(step+1)*cfg.FPRate) > int(float64(step)*cfg.FPRate) {
				t3 := c.Clock()
				doStep()
				doCheck()
				checkTimes[r] += c.Clock() - t3
			}
		}
	})
	_ = comms

	res := Result{Cores: cfg.Cores, SolverBytes: solverBytes, DetectorBytes: detBytes}
	for r := 0; r < cfg.Cores; r++ {
		if stepTimes[r] > res.StepSeconds {
			res.StepSeconds = stepTimes[r]
		}
		if checkTimes[r] > res.CheckSeconds {
			res.CheckSeconds = checkTimes[r]
		}
	}
	return res, nil
}
