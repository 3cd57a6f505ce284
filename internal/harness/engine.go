package harness

import (
	"context"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"repro/internal/batch"
	"repro/internal/la"
	"repro/internal/ode"
	"repro/internal/xrand"
)

// This file holds the campaign engine: one wave scheduler that serves every
// (Workers, Batch) shape. Replicates run in groups of up to Batch
// consecutive replicates, a group of one on the serial integrator (the
// oracle) and a wider group as lanes of one lockstep structure-of-arrays
// batch (internal/batch), which is bitwise identical to the serial
// integrator lane by lane. Outcomes fold into the Result through a merger
// strictly in replicate order, so every shape produces the same Canonical
// Result — a guarantee the worker-count matrix and the batched sweep hold
// against the committed serial goldens.

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

// laneScratch is the per-replicate arena of the wiring machinery that is
// expensive to rebuild per run: the clean shadow steppers and the
// significance-check vectors. A worker keeps one per lane slot, because
// each lane's shadow machinery stays live for the whole interleaved group.
type laneScratch struct {
	shadow, oshadow  *ode.Stepper
	cw, xt, oxt, ocw la.Vec
}

// workerScratch is a worker-owned arena of the replicate machinery that is
// expensive to rebuild per run: the serial integrator (whose Init reuses
// the stage storage, history ring, and scratch vectors when shapes match),
// the lockstep batch (recycled while the cell's shape is unchanged), and
// one lane arena and wiring slot per lane. Reuse changes no campaign
// number — every buffer is fully overwritten before it is read — and each
// arena is owned by exactly one worker, so the engine stays race-free and
// bitwise deterministic.
type workerScratch struct {
	in    ode.Integrator
	bi    *batch.Integrator
	lanes []laneScratch
	wires []repWiring
	refs  []*batch.Lane
}

// stepperFor fills slot with a stepper for (tab, sys), recycling the stage
// storage when the tableau is unchanged (Retarget recycles it again when the
// dimension also matches).
func stepperFor(slot **ode.Stepper, tab *ode.Tableau, sys ode.System) *ode.Stepper {
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

// runCampaign is the campaign engine. Replicates execute in waves of
// groups, a group being up to Batch consecutive replicates: waveFactor ×
// workers groups per wave on a pool, one group per wave on a single worker
// (the factor only exists to keep several workers busy). Before each wave
// the replicates' substreams are split from root in replicate order; after
// it, outcomes merge in replicate order under the sequential stopping rule
// (Injections >= minInj, or maxRuns). A wave may overshoot the injection
// target, in which case the replicates past the first one satisfying the
// stop condition are discarded, exactly as a replicate-at-a-time loop
// would never have run them. A cancelled ctx halts every in-flight
// replicate on a step boundary and surfaces as the first merged error.
func runCampaign(ctx context.Context, cfg *Config, res *Result, m *merger, root *xrand.RNG, minInj, maxRuns, workers int) error {
	width := cfg.batch()
	wave := width
	if workers > 1 {
		wave *= waveFactor * workers
	}
	// The arenas and the wave buffers outlive the wave loop: each worker
	// keeps its arena across waves, so the integrators and the shadow
	// steppers are built once per campaign, not once per replicate.
	scratch := make([]workerScratch, workers)
	for w := range scratch {
		scratch[w] = workerScratch{
			lanes: make([]laneScratch, width),
			wires: make([]repWiring, width),
			refs:  make([]*batch.Lane, width),
		}
	}
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

// runWave runs one wave's replicates group by group, filling outs. A
// single worker runs on the calling goroutine; a pool hands groups to its
// workers in any order, since a group writes only its own outcomes and its
// worker's arena.
func runWave(ctx context.Context, cfg *Config, jobs []repJob, outs []repOutcome, scratch []workerScratch) {
	width := cfg.batch()
	groups := (len(jobs) + width - 1) / width
	group := func(ctx context.Context, g int, scr *workerScratch) {
		lo, hi := g*width, min((g+1)*width, len(jobs))
		runGroup(ctx, cfg, jobs[lo:hi], outs[lo:hi], scr)
	}
	if len(scratch) == 1 {
		for g := 0; g < groups; g++ {
			group(ctx, g, &scratch[0])
		}
		return
	}

	// Buffered to the group count so dispatch below never blocks: the
	// dispatcher must not wait on a worker mid-group after the context is
	// cancelled.
	idx := make(chan int, groups)
	var wg sync.WaitGroup
	for w := range scratch[:min(len(scratch), groups)] {
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
				for g := range idx {
					group(ctx, g, &scratch[w])
				}
			})
		}(w)
	}
	for g := 0; g < groups; g++ {
		idx <- g
	}
	close(idx)
	wg.Wait()
}

// runGroup runs len(jobs) consecutive replicates (at most the configured
// batch width) on a worker's arena, filling outs with their outcomes. A
// group of one runs on the serial integrator, because lockstep at width 1
// only adds overhead. A wider group runs as lanes of one lockstep batch,
// whose wall time is attributed evenly across the lanes — lanes execute
// interleaved, so no sharper per-replicate timing exists — and which a
// cancelled ctx abandons between lockstep rounds, reporting the context
// error for every lane.
func runGroup(ctx context.Context, cfg *Config, jobs []repJob, outs []repOutcome, scr *workerScratch) {
	if len(jobs) == 1 {
		outs[0] = runReplicate(ctx, cfg, jobs[0], scr)
		return
	}
	if err := ctx.Err(); err != nil {
		for i := range jobs {
			outs[i] = repOutcome{err: err}
		}
		return
	}
	//lint:allow walltime -- per-replicate wall time feeds the §VI-B overhead ratio, never the deterministic outputs
	groupStart := time.Now()
	p := cfg.Problem
	width := cfg.batch()
	dim := len(p.X0)
	ctrl := ode.DefaultController(p.TolA, p.TolR)
	ctrl.MaxNorm = cfg.MaxNorm
	bcfg := batch.Config{
		Tab:               cfg.Tab,
		Ctrl:              ctrl,
		MaxSteps:          1 << 18,
		MaxStep:           p.MaxStep,
		NoReuseFirstStage: cfg.NoReuseFirstStage,
	}
	if scr.bi == nil || !scr.bi.Matches(bcfg, width, dim) {
		scr.bi = batch.New(bcfg, width, dim)
	}
	bi := scr.bi
	bi.Reset()

	n := len(jobs)
	for i := 0; i < n; i++ {
		outs[i] = repOutcome{}
		w, err := wireReplicate(cfg, jobs[i], &scr.lanes[i], &outs[i])
		if err != nil {
			// Wiring fails only on configuration-level errors (an unknown
			// detector), which would fail every lane identically.
			for j := i; j < n; j++ {
				outs[j] = repOutcome{err: err}
			}
			return
		}
		scr.wires[i] = w
		scr.refs[i] = bi.AddLane(batch.LaneConfig{
			Sys:       w.sys,
			Validator: w.validator,
			Hook:      w.hook,
			StateHook: w.stateHook,
			OnTrial:   w.onTrial,
			Tracer:    w.tracer,
			T0:        p.T0, TEnd: p.TEnd,
			X0: p.X0, H0: p.H0,
		})
	}
	// Drive the lockstep rounds directly instead of bi.Run so the group can
	// poll for cancellation: one poll per haltCheckInterval rounds, the
	// batched analog of the serial integrator's Halt hook.
	if halt := haltFunc(ctx); halt == nil {
		bi.Run()
	} else {
		for bi.Round() {
			if halt() {
				for i := range jobs {
					outs[i] = repOutcome{err: ctx.Err()}
				}
				return
			}
		}
	}
	//lint:allow walltime -- per-replicate wall time feeds the §VI-B overhead ratio, never the deterministic outputs
	per := time.Since(groupStart).Seconds() / float64(n)
	for i := 0; i < n; i++ {
		ln := scr.refs[i]
		collectOutcome(&outs[i], scr.wires[i], ln.Err(), ln.Stats(), per)
	}
}
