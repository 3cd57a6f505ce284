package harness

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"

	"repro/internal/control"
	"repro/internal/la"
	"repro/internal/ode"
	"repro/internal/xrand"
)

// This file holds the campaign engine: one wave scheduler that serves every
// worker count. Each replicate runs on its worker's ode.Integrator, and
// outcomes fold into the Result through a merger strictly in replicate
// order, so every worker count produces the same Canonical Result — a
// guarantee the worker-count matrix holds against the committed serial
// goldens.

// merger folds replicate outcomes into a Result in replicate order and
// accumulates the cross-replicate aggregates that cannot live in Rates.
type merger struct {
	memSum, memN float64
	cpuSeconds   float64
}

func (m *merger) merge(res *Result, out repOutcome) {
	res.Rates.Add(out.rates)
	res.Steps += out.steps
	res.TrialSteps += out.trialSteps
	res.Evals += out.evals
	m.memSum += out.memVecs
	m.memN++
	m.cpuSeconds += out.seconds
	// The last merged replicate's detector supplies the mean
	// double-checking order.
	res.MeanOrder = out.meanOrder
	// Observability attachments fold in replicate order too, which keeps
	// the merged trace and the metric counters worker-count invariant.
	if res.Trace != nil {
		res.Trace.Merge(out.trace)
	}
	if res.Metrics != nil {
		res.Metrics.Merge(out.metrics)
	}
}

func (m *merger) finish(res *Result) {
	if m.memN > 0 {
		res.MemVectors = m.memSum / m.memN
	}
	res.CPUSeconds = m.cpuSeconds
	if res.WallSeconds > 0 {
		res.Speedup = res.CPUSeconds / res.WallSeconds
	}
	if res.Metrics != nil {
		res.Metrics.Gauge(MWallSeconds).Set(res.WallSeconds)
		res.Metrics.Gauge(MCPUSeconds).Set(res.CPUSeconds)
		res.Metrics.Gauge(MSpeedup).Set(res.Speedup)
	}
}

// workerScratch is a worker-owned arena of the replicate machinery that is
// expensive to rebuild per run: the integrator (whose Init reuses the stage
// storage, history ring, and scratch vectors when shapes match), the clean
// shadow steppers, and the significance-check vectors. Reuse changes no
// campaign number — every buffer is fully overwritten before it is read —
// and each arena is owned by exactly one worker, so the engine stays
// race-free and bitwise deterministic.
type workerScratch struct {
	in               ode.Integrator
	shadow, oshadow  *ode.Stepper
	cw, xt, oxt, ocw la.Vec
}

// stepperFor fills slot with a stepper for (tab, sys), recycling the stage
// storage when the tableau is unchanged (Retarget recycles it again when the
// dimension also matches).
func stepperFor(slot **ode.Stepper, tab *control.Tableau, sys control.System) *ode.Stepper {
	if *slot == nil || (*slot).Tab != tab {
		*slot = ode.NewStepper(tab, sys)
	} else {
		(*slot).Retarget(sys)
	}
	return *slot
}

// vecFor fills slot with an m-vector, reusing the allocation when the
// dimension is unchanged.
func vecFor(slot *la.Vec, m int) la.Vec {
	if len(*slot) != m {
		*slot = la.NewVec(m)
	}
	return *slot
}

// waveFactor sizes a multi-worker wave as a multiple of the worker count:
// wide enough to keep workers busy across replicate-runtime variance,
// narrow enough to bound the overshoot discarded by the stopping rule.
const waveFactor = 2

// runCampaign is the campaign engine. Replicates execute in waves:
// waveFactor × workers replicates per wave on a pool, one per wave on a
// single worker (the factor only exists to keep several workers busy).
// Before each wave the replicates' substreams are split from root in
// replicate order; after it, outcomes merge in replicate order under the
// sequential stopping rule (Injections >= minInj, or maxRuns). A wave may
// overshoot the injection target, in which case the replicates past the
// first one satisfying the stop condition are discarded, exactly as a
// replicate-at-a-time loop would never have run them. A cancelled ctx
// halts every in-flight replicate on a step boundary and surfaces as the
// first merged error.
func runCampaign(ctx context.Context, cfg *Config, res *Result, m *merger, root *xrand.RNG, minInj, maxRuns, workers int) error {
	wave := 1
	if workers > 1 {
		wave = waveFactor * workers
	}
	// The arenas and the wave buffers outlive the wave loop: each worker
	// keeps its arena across waves, so the integrators and the shadow
	// steppers are built once per campaign, not once per replicate.
	scratch := make([]workerScratch, workers)
	jobs := make([]repJob, wave)
	outs := make([]repOutcome, wave)
	for next := 0; next < maxRuns && res.Rates.Injections < minInj; next += wave {
		n := min(wave, maxRuns-next)
		for i := range jobs[:n] {
			jobs[i] = nextJob(cfg, root, next+i)
		}
		runWave(ctx, cfg, jobs[:n], outs[:n], scratch)
		for i := range outs[:n] {
			if res.Rates.Injections >= minInj {
				break // overshoot: the stopping rule fired on an earlier replicate
			}
			if outs[i].err != nil {
				return outs[i].err
			}
			m.merge(res, outs[i])
		}
	}
	return nil
}

// runWave runs one wave's replicates, filling outs. A single worker runs
// on the calling goroutine; a pool hands replicates to its workers in any
// order, since a replicate writes only its own outcome and its worker's
// arena.
func runWave(ctx context.Context, cfg *Config, jobs []repJob, outs []repOutcome, scratch []workerScratch) {
	if len(scratch) == 1 {
		for i := range jobs {
			outs[i] = runReplicate(ctx, cfg, jobs[i], &scratch[0])
		}
		return
	}

	// Buffered to the wave size so dispatch below never blocks: the
	// dispatcher must not wait on a worker mid-replicate after the context
	// is cancelled.
	idx := make(chan int, len(jobs))
	var wg sync.WaitGroup
	for w := range scratch[:min(len(scratch), len(jobs))] {
		wg.Add(1)
		// pprof labels mark each worker's samples with its index and the
		// campaign's detector so CPU profiles of a campaign can be sliced
		// per worker (`go tool pprof -tagfocus`).
		go func(w int) {
			defer wg.Done()
			labels := pprof.Labels(
				"campaign-worker", strconv.Itoa(w),
				"detector", string(cfg.Detector))
			pprof.Do(ctx, labels, func(ctx context.Context) {
				for i := range idx {
					outs[i] = runReplicate(ctx, cfg, jobs[i], &scratch[w])
				}
			})
		}(w)
	}
	for i := range jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
}
