package main

import (
	"fmt"
	"time"

	"repro/internal/batch"
	"repro/internal/control"
	"repro/internal/la"
	"repro/internal/ode"
	"repro/internal/problems"
)

// unitCosts are the per-call costs of public layer calls, timed on a
// workload's own problem, tableau and tolerances (the layer replay).
type unitCosts struct {
	stepNs       map[string]float64 // ode.Integrator.Step per detector
	evalsPerStep map[string]float64 // RHS evaluations per accepted step
	laneNs       map[string]float64 // batch.Integrator.Round per lane-step, B=8
	trialNs      float64            // ode.Stepper.Trial
	rhsNs        float64            // ode.System.Eval
	scoreNs      float64            // la.ErrWeights + la.WRMS
	lipNs, bdfNs float64            // LIP/BDF estimates at the campaign's orders
}

// replayWarmSteps grows every lazily sized buffer before a loop is timed.
const replayWarmSteps = 200

// sink keeps timed results observable so no call is optimized away.
var sink float64

// replaySlices is how many slices a timed loop's budget is cut into.
const replaySlices = 7

// timeLoop calls fn for about budget and returns the median over
// replaySlices slices of the mean time per call, in ns: the median drops
// slices that a burst of contention from outside the process slowed.
func timeLoop(budget time.Duration, fn func() error) (float64, error) {
	var means []float64
	for s := 0; s < replaySlices; s++ {
		n := 0
		t0 := time.Now()
		for b := 1; ; b = min(2*b, 1<<10) {
			for i := 0; i < b; i++ {
				if err := fn(); err != nil {
					return 0, err
				}
			}
			n += b
			if el := time.Since(t0); el >= budget/replaySlices {
				means = append(means, float64(el.Nanoseconds())/float64(n))
				break
			}
		}
	}
	return median(means), nil
}

// replayUnitCosts times the public layer calls the campaign makes, on the
// campaign's own problem. lipQ and bdfQ are the estimate orders to price.
func replayUnitCosts(p *problems.Problem, tab *ode.Tableau, lipQ, bdfQ int, scale string, tr *tracer) (*unitCosts, error) {
	budget := 150 * time.Millisecond
	if scale == "tiny" {
		budget = 5 * time.Millisecond
	}
	root, end := tr.begin(0, "replay", "")
	defer end()
	uc := &unitCosts{stepNs: map[string]float64{}, evalsPerStep: map[string]float64{}, laneNs: map[string]float64{}}
	ctrl := ode.DefaultController(p.TolA, p.TolR)

	var warm *ode.Integrator // the classic integrator, warmed: its state feeds the kernel loops
	for _, det := range table3Detectors {
		_, endSpan := tr.begin(root, "replay.ode.Integrator.Step/"+string(det), "")
		sys := &ode.CountingSystem{Sys: p.SysInstance()}
		d, err := control.New(string(det), control.Spec{Tab: tab, Sys: sys})
		if err != nil {
			return nil, err
		}
		in := &ode.Integrator{Tab: tab, Ctrl: ctrl, Validator: d.Validator, MaxStep: p.MaxStep, MaxSteps: 1 << 40, MinStep: 1e-12}
		in.Init(sys, p.T0, 1e15, p.X0, p.H0)
		for i := 0; i < replayWarmSteps; i++ {
			if err := in.Step(); err != nil {
				return nil, fmt.Errorf("replay warm-up %s: %w", det, err)
			}
		}
		steps0, evals0 := in.Stats.Steps, sys.Evals
		ns, err := timeLoop(budget, in.Step)
		endSpan()
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", det, err)
		}
		// The loop times accepted steps; a rare rejection inside one is
		// part of its cost, exactly as in a campaign.
		uc.stepNs[string(det)] = ns
		uc.evalsPerStep[string(det)] = float64(sys.Evals-evals0) / float64(in.Stats.Steps-steps0)
		if det == "classic" {
			warm = in
		}
	}

	t, h := warm.T(), warm.StepSize()
	if p.MaxStep > 0 {
		h = min(h, p.MaxStep)
	}
	x := warm.X().Clone()
	sys := p.SysInstance()
	dim := sys.Dim()

	kernel := func(name string, fn func() error) (float64, error) {
		_, endSpan := tr.begin(root, "replay."+name, "")
		defer endSpan()
		return timeLoop(budget, fn)
	}
	var err error
	st := ode.NewStepper(tab, sys)
	errVec := st.Trial(t, h, x, nil, nil).ErrVec.Clone()
	if uc.trialNs, err = kernel("ode.Stepper.Trial", func() error {
		sink += st.Trial(t, h, x, nil, nil).XProp[0]
		return nil
	}); err != nil {
		return nil, err
	}
	f := la.NewVec(dim)
	if uc.rhsNs, err = kernel("problems.System.Eval", func() error {
		sys.Eval(t, x, f)
		sink += f[0]
		return nil
	}); err != nil {
		return nil, err
	}
	wts := la.NewVec(dim)
	if uc.scoreNs, err = kernel("la.ErrWeights+WRMS", func() error {
		la.ErrWeights(wts, x, p.TolA, p.TolR)
		sink += la.WRMS(errVec, wts)
		return nil
	}); err != nil {
		return nil, err
	}
	hist := warm.History()
	dst := la.NewVec(dim)
	lip := &ode.LIPEstimator{}
	lipQ = min(lipQ, hist.Len()-1)
	if uc.lipNs, err = kernel("ode.LIPEstimator.Estimate", func() error {
		sink += float64(lip.Estimate(dst, hist, lipQ, t+h))
		return nil
	}); err != nil {
		return nil, err
	}
	bdf := &ode.BDFEstimator{}
	bdfQ = min(bdfQ, hist.Len())
	if uc.bdfNs, err = kernel("ode.BDFEstimator.Estimate", func() error {
		sink += float64(bdf.Estimate(dst, hist, bdfQ, t+h, f))
		return nil
	}); err != nil {
		return nil, err
	}

	for _, det := range table3Detectors {
		_, endSpan := tr.begin(root, "replay.batch.Integrator.Round/"+string(det), "")
		ns, err := laneStepNs(p, tab, string(det), 8, budget)
		endSpan()
		if err != nil {
			return nil, err
		}
		uc.laneNs[string(det)] = ns
	}
	return uc, nil
}

// laneStepNs times lockstep rounds of width identical replicate lanes and
// returns the time per lane-step (one accepted step of one lane).
func laneStepNs(p *problems.Problem, tab *ode.Tableau, det string, width int, budget time.Duration) (float64, error) {
	bi := batch.New(batch.Config{
		Tab:      tab,
		Ctrl:     ode.DefaultController(p.TolA, p.TolR),
		MaxSteps: 1 << 40,
		MinStep:  1e-12,
		MaxStep:  p.MaxStep,
	}, width, p.Sys.Dim())
	lanes := make([]*batch.Lane, width)
	for i := range lanes {
		sys := p.SysInstance()
		d, err := control.New(det, control.Spec{Tab: tab, Sys: sys})
		if err != nil {
			return 0, err
		}
		lanes[i] = bi.AddLane(batch.LaneConfig{Sys: sys, Validator: d.Validator, T0: p.T0, TEnd: 1e15, X0: p.X0, H0: p.H0})
	}
	steps := func() (n int) {
		for _, ln := range lanes {
			n += ln.Stats().Steps
		}
		return n
	}
	for i := 0; i < replayWarmSteps; i++ {
		bi.Round()
	}
	var perLaneStep []float64
	for s := 0; s < replaySlices; s++ {
		s0 := steps()
		t0 := time.Now()
		for time.Since(t0) < budget/replaySlices {
			bi.Round()
		}
		perLaneStep = append(perLaneStep, float64(time.Since(t0).Nanoseconds())/float64(steps()-s0))
	}
	if bi.Live() != width {
		return 0, fmt.Errorf("replay batch %s: %d of %d lanes retired", det, width-bi.Live(), width)
	}
	return median(perLaneStep), nil
}

// layerMetrics joins the campaign counts with the unit costs into the
// per-layer metrics shared by every workload.
func layerMetrics(v map[string]float64, c *counts, uc *unitCosts) {
	cpuNs := c.cpuS * 1e9
	shadowNs := c.corruptTrials * (uc.trialNs + uc.scoreNs)
	v["harness.cpu_s"] = c.cpuS
	v["harness.replicates"] = c.replicates
	v["harness.parallel_efficiency"] = ratio(c.cpuS, float64(c.workers)*c.wall)
	v["harness.shadow_recomputes"] = c.corruptTrials
	v["harness.shadow_share"] = ratio(shadowNs, cpuNs)
	v["harness.unattributed_share"] = 1 - ratio(attributedNs(c, uc)+shadowNs, cpuNs)
	v["harness.alloc_bytes_per_trial"] = ratio(c.allocBytes, c.trialSteps)
	v["harness.gc_cycles"] = c.gcCycles
	v["ode.steps"] = c.steps
	v["ode.trial_steps"] = c.trialSteps
	v["ode.accept_ratio"] = ratio(c.steps, c.trialSteps)
	v["ode.rejected_classic"] = c.rejectedClassic
	v["ode.rejected_validator"] = c.rejectedValidator
	v["ode.fp_rescues"] = c.fpRescues
	v["ode.trial_ns"] = uc.trialNs
	v["ode.lip_estimate_ns"] = uc.lipNs
	v["ode.bdf_estimate_ns"] = uc.bdfNs
	v["problems.rhs_evals"] = c.rhsEvals
	v["problems.rhs_ns"] = uc.rhsNs
	v["problems.rhs_share"] = ratio(c.rhsEvals*uc.rhsNs, cpuNs)
	v["la.score_ns"] = uc.scoreNs
	v["inject.injections"] = c.injections
	v["inject.sig_ratio"] = ratio(c.sigTrials, c.corruptTrials)
	classic := c.perDet["classic"]
	for _, det := range table3Detectors {
		d := string(det)
		v["ode.step_ns."+d] = uc.stepNs[d]
		v["batch.ns_per_lane_step."+d] = uc.laneNs[d]
		v["batch.speedup_vs_serial."+d] = ratio(uc.stepNs[d], uc.laneNs[d])
		if det == "classic" {
			continue
		}
		extraEvals := uc.evalsPerStep[d] - uc.evalsPerStep["classic"]
		v["core.detector_ns."+d] = uc.stepNs[d] - uc.stepNs["classic"] - extraEvals*uc.rhsNs
		// Table IV's wall overhead, from campaign CPU per trial step.
		if dc := c.perDet[d]; dc != nil && classic != nil && dc.cpuS > 0 && classic.cpuS > 0 {
			v["core.overhead_pct."+d] = 100 * (ratio(dc.cpuS, dc.trialSteps)/ratio(classic.cpuS, classic.trialSteps) - 1)
		} else {
			v["core.overhead_pct."+d] = 0 // no per-detector CPU time on this workload
		}
	}
	for _, d := range []string{"lbdc", "ibdc"} {
		if dc := c.perDet[d]; dc != nil {
			v["core.mean_order."+d] = dc.meanOrder
		} else {
			v["core.mean_order."+d] = 0
		}
	}
}

// attributedNs is the campaign time the step replay accounts for: each
// detector's trial steps at that detector's step cost.
func attributedNs(c *counts, uc *unitCosts) float64 {
	ns := 0.0
	for d, dc := range c.perDet {
		ns += dc.trialSteps * uc.stepNs[d]
	}
	return ns
}

// printSplit prints the replay table from the per-layer metrics v: each
// layer's count, unit cost and share of the campaign's CPU time, and the
// unattributed residual. Rows marked "of which" are parts of the step rows
// above them.
func printSplit(workload string, c *counts, v map[string]float64) {
	cpuNs := c.cpuS * 1e9
	fmt.Printf("layer split, %s (campaign cpu %.3f s):\n", workload, c.cpuS)
	fmt.Printf("  %-40s %14s %12s %8s\n", "layer call", "count", "unit ns", "share")
	row := func(name string, count, unit float64) {
		fmt.Printf("  %-40s %14.0f %12.1f %7.2f%%\n", name, count, unit, 100*ratio(count*unit, cpuNs))
	}
	var dets []string
	for _, det := range table3Detectors {
		if _, ok := c.perDet[string(det)]; ok {
			dets = append(dets, string(det))
		}
	}
	for _, d := range dets {
		row("ode.Integrator.Step/"+d, c.perDet[d].trialSteps, v["ode.step_ns."+d])
	}
	row("  of which problems.System.Eval", c.rhsEvals, v["problems.rhs_ns"])
	row("  of which la.ErrWeights+WRMS", c.trialSteps, v["la.score_ns"])
	for _, d := range dets {
		if d != "classic" {
			row("  of which core detector/"+d, c.perDet[d].trialSteps, v["core.detector_ns."+d])
		}
	}
	row("harness shadow recompute (Trial+score)", c.corruptTrials, v["ode.trial_ns"]+v["la.score_ns"])
	fmt.Printf("  %-40s %14s %12s %7.2f%%\n", "unattributed", "", "", 100*v["harness.unattributed_share"])
	fmt.Printf("  estimates: LIP q=%d %.1f ns, BDF q=%d %.1f ns\n", c.lipQ(), v["ode.lip_estimate_ns"], c.bdfQ(), v["ode.bdf_estimate_ns"])
	for _, det := range table3Detectors {
		d := string(det)
		fmt.Printf("  batch B=8 %-12s %10.1f ns/lane-step, %.2fx serial\n", d, v["batch.ns_per_lane_step."+d], v["batch.speedup_vs_serial."+d])
	}
}
