// Package scaling reproduces the paper's scalability experiments (Table V
// and Figure 3): the per-step and per-double-check execution time of the
// protected adaptive solver on a modelled cluster of 64-4096 cores, and
// the relative time and memory overheads of LBDC and IBDC against the
// classic adaptive controller.
//
// It evaluates the cluster cost model of package mpi on one rank's virtual
// clock; Run's doc comment says why that clock is every rank's. Each rank
// owns a block of the global bubble grid. A step charges the distributed
// solver's communication pattern — halo exchanges per stage and the
// Allreduce behind the WRMS error norm — and its arithmetic volume.
// Double-checking adds its own local AXPY work and one more Allreduce per
// step, exactly the communication structure §VI-C describes.
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
	globalN    = 64 // global grid points per axis (the paper's 64^3)
	nVars      = 5  // conserved variables per point
	checkOrder = 3  // double-checking order q
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
	Stages int // N_k of the embedded pair; 0 means 2
	Det    Detector
	Cores  int
	Steps  int     // accepted steps to simulate
	FPRate float64 // fraction of steps recomputed due to double-check FPs
}

// Result reports the simulated timings and per-rank memory.
type Result struct {
	Cores         int
	StepSeconds   float64 // simulated time spent in steps
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

// Run prices cfg's steps and double-checks on one rank's virtual clock.
//
// One rank is enough because the model is rank-symmetric: every rank owns
// a block of the same ceiling size on a periodic process grid and makes
// the same sequence of calls, so at every call all clocks read the same.
//   - A halo message comes from a rank that made the same additions, so
//     it arrives no later than the receiver's clock: a receive never
//     waits and only adds MessageTime(0). With two ranks on an axis both
//     sends go to the same neighbour, and per-source FIFO matching pairs
//     them the same way.
//   - An Allreduce lifts every clock to the slowest, which is every clock,
//     and adds AllreduceTime(P, 2).
//
// The clock takes every addition separately and in a rank's order (per
// axis: send, send, receive, receive), and the step and check times are
// sums of differences of that growing clock, so they round as a rank's
// would; a per-step total multiplied by Steps would not.
func Run(cfg Config) (Result, error) {
	if cfg.Stages == 0 {
		cfg.Stages = 2
	}
	switch cfg.Det {
	case Classic, LBDC, IBDC, Replication:
	default:
		return Result{}, fmt.Errorf("scaling: unknown detector %q", cfg.Det)
	}
	if cfg.Cores < 1 || cfg.Steps < 1 || cfg.Stages < 0 {
		return Result{}, fmt.Errorf("scaling: need cores >= 1, steps >= 1 and stages >= 0, got %d, %d and %d",
			cfg.Cores, cfg.Steps, cfg.Stages)
	}
	procs := factor3(cfg.Cores)
	var local [3]int
	for ax := range local {
		local[ax] = (globalN + procs[ax] - 1) / procs[ax]
	}
	localPts := local[0] * local[1] * local[2]
	faces := [3]int{local[1] * local[2], local[0] * local[2], local[0] * local[1]}

	// Per-rank memory accounting (bytes).
	ghost := 3
	surface := 2 * ghost * (faces[0] + faces[1] + faces[2])
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

	m := mpi.DefaultModel()
	stageFlops := flopsPerPointPerStage*float64(localPts*nVars) + serialFlopsPerStage
	haloCount := 2 * ghost * nVars // values per face point; a message is a face's worth
	var clock float64

	compute := func(flops float64) { clock += m.ComputeTime(flops) }
	exchangeHalos := func() {
		for ax := 0; ax < 3; ax++ {
			if procs[ax] == 1 {
				continue
			}
			send := m.MessageTime(haloCount * faces[ax])
			clock += send             // to the right neighbour
			clock += send             // to the left neighbour
			clock += m.MessageTime(0) // from the left neighbour
			clock += m.MessageTime(0) // from the right neighbour
		}
	}
	wrmsAllreduce := func() {
		// Local partial sums of the scaled error norm, then one
		// two-value Allreduce.
		compute(4 * float64(localPts*nVars))
		clock += m.AllreduceTime(cfg.Cores, 2)
	}
	doStep := func() {
		for s := 0; s < cfg.Stages; s++ {
			exchangeHalos()
			compute(stageFlops)
		}
		// Error estimate assembly + weights.
		compute(6 * float64(localPts*nVars))
		wrmsAllreduce()
	}
	doCheck := func() {
		switch cfg.Det {
		case Classic:
		case Replication:
			// The replica recomputes the entire step.
			doStep()
		default:
			// Second-estimate assembly: (order+1) AXPYs over the state.
			compute(2 * float64(checkOrder+1) * float64(localPts*nVars))
			wrmsAllreduce()
		}
	}

	res := Result{Cores: cfg.Cores, SolverBytes: solverBytes, DetectorBytes: detBytes}
	for step := 0; step < cfg.Steps; step++ {
		t0 := clock
		doStep()
		t1 := clock
		doCheck()
		res.StepSeconds += t1 - t0
		res.CheckSeconds += clock - t1
		// False positives recompute the step; charge the extra step to the
		// detector, as the paper's overhead accounting does. The schedule
		// fires whenever the cumulative expected FP count crosses an
		// integer.
		if cfg.Det != Classic && cfg.FPRate > 0 &&
			int(float64(step+1)*cfg.FPRate) > int(float64(step)*cfg.FPRate) {
			t3 := clock
			doStep()
			doCheck()
			res.CheckSeconds += clock - t3
		}
	}
	return res, nil
}
