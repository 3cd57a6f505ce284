package harness

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/control"
	// The detector registry is populated by package init functions; the blank
	// import pulls in the lbdc/ibdc/replication/tmr/richardson factories and
	// the related-work aid/hotrode detectors.
	_ "repro/internal/core"
	"repro/internal/inject"
	"repro/internal/la"
	"repro/internal/ode"
	"repro/internal/problems"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// The campaign metrics schema: counter, gauge, and histogram names used
// when Config.Metrics is enabled. Names under telemetry.TimePrefix carry
// wall-clock measurements and are excluded from determinism comparisons.
const (
	MSteps             = "steps"                                    // accepted steps
	MTrialSteps        = "trial_steps"                              // all trials
	MRejectedClassic   = "rejected_classic"                         // classic error-test rejections
	MRejectedValidator = "rejected_validator"                       // double-check detector fires
	MFPRescues         = "fp_rescues"                               // self-identified false positives
	MRHSEvals          = "rhs_evals"                                // fresh right-hand-side evaluations
	MInjections        = "injections"                               // SDCs applied
	MSigTrials         = "sig_trials"                               // significantly corrupted trials
	MSigAccepted       = "sig_accepted"                             // silently accepted significant trials
	MRuns              = "runs"                                     // completed integrations
	MDiverged          = "diverged"                                 // failed integrations
	MStepSize          = "step_size"                                // histogram of accepted step sizes
	MReplicateSeconds  = telemetry.TimePrefix + "replicate_seconds" // histogram
	MWallSeconds       = telemetry.TimePrefix + "wall_seconds"      // gauge
	MCPUSeconds        = telemetry.TimePrefix + "cpu_seconds"       // gauge
	MSpeedup           = telemetry.TimePrefix + "speedup"           // gauge
)

// DetectorKind selects which protection mechanism guards the solver.
type DetectorKind string

// The detector kinds of the evaluation: the classic adaptive controller
// alone, the paper's two double-checking strategies, the redundancy
// baselines, and the related-work detectors built for constant-step solvers
// (§VII-C), which guard adaptive and fixed-step cells alike.
const (
	Classic     DetectorKind = "classic"
	LBDC        DetectorKind = "lbdc"
	IBDC        DetectorKind = "ibdc"
	Replication DetectorKind = "replication"
	TMR         DetectorKind = "tmr"
	Richardson  DetectorKind = "richardson"
	// Oracle rejects exactly the significantly corrupted steps (it compares
	// against a clean recomputation like the harness's ground truth): the
	// unreachable ideal detector, useful as the upper bound in comparisons.
	Oracle  DetectorKind = "oracle"
	AID     DetectorKind = "aid"
	HotRode DetectorKind = "hotrode"
)

// AllDetectors lists every detector kind.
func AllDetectors() []DetectorKind {
	return []DetectorKind{Classic, LBDC, IBDC, Replication, TMR, Richardson, Oracle, AID, HotRode}
}

// Config describes one campaign cell: a problem, an embedded pair, an
// injector, and a detector.
type Config struct {
	Problem    *problems.Problem
	Tab        *control.Tableau
	Injector   inject.Injector
	InjectProb float64 // per function evaluation; 0 means the paper's 1/100
	Detector   DetectorKind
	Seed       uint64

	// MinInjections keeps restarting the integration (with fresh
	// substreams) until at least this many SDCs have been applied
	// (0 = 1000). The paper uses >= 10000 per experiment.
	MinInjections int
	// MaxRuns bounds the number of restarts (0 = 10000).
	MaxRuns int
	// NoAdapt disables Algorithm 1's order adaptation (ablation).
	NoAdapt bool
	// FixedOrder, when > 0, pins the double-checking order to FixedOrder-1
	// (i.e. pass q+1; 0 means the strategy default). Use with NoAdapt.
	FixedOrder int
	// MaxNorm switches the controller to the q = infinity scaled error.
	MaxNorm bool
	// NoReuseFirstStage disables FSAL/FProp reuse (ablation).
	NoReuseFirstStage bool
	// StateProb additionally corrupts the solution vector as read by a
	// trial with this per-step probability (the paper's §V-D scenario,
	// where the classic estimate is provably blind). 0 disables it.
	StateProb float64
	// Field, when non-nil, confines stage injections to one component range
	// (per-variable vulnerability studies on field-blocked PDE states).
	Field *inject.FieldSelective
	// FixedStep makes the cell a fixed-step one (§VII-C): the integrator
	// holds h at Problem.H0 with no classic test (ode.Integrator.FixedStep),
	// Classic then means the unguarded solver, and a corrupted trial is
	// significant when it is not finite or moves the proposal, in the max
	// norm, by more than a tenth of the clean step's error estimate. Fixed
	// cells draw their replicates from their own root stream.
	FixedStep bool

	// Workers sets the replicate-level parallelism: 0 uses
	// runtime.GOMAXPROCS(0), a negative value runs one worker, and a
	// positive value runs that many workers. One worker runs the campaign
	// on the calling goroutine, replicate after replicate. Every worker
	// count produces a bitwise-identical Result (modulo wall-clock fields)
	// because replicates draw their substreams in replicate order, carry
	// zero shared mutable state, and are merged back in replicate order.
	Workers int

	// Batch is ignored. It remains only because the repository benchmark
	// (perfbench) still sets it, and goes with the benchmark change that
	// drops its B = 8 pass.
	Batch int

	// Trace enables the step tracer: every trial of every replicate emits
	// one telemetry.StepEvent (stamped with its replicate index, detector
	// kind, and injection ground truth) into Result.Trace. Tracing is
	// purely observational — it changes no campaign number and keeps
	// Result.Canonical() byte-identical to an untraced run.
	Trace bool
	// TraceCap bounds the ring capacity of the campaign trace and of each
	// replicate's recorder (0 = telemetry.DefaultCap). The campaign keeps
	// the most recent TraceCap merged events.
	TraceCap int
	// Metrics enables the campaign metrics registry (see the M* name
	// constants) in Result.Metrics. Like Trace, purely observational.
	Metrics bool
}

func (c *Config) injectProb() float64 {
	if c.InjectProb == 0 {
		return 0.01
	}
	return c.InjectProb
}

func (c *Config) traceCap() int {
	if c.TraceCap > 0 {
		return c.TraceCap
	}
	return telemetry.DefaultCap
}

func (c *Config) workers() int {
	if c.Workers == 0 {
		return runtime.GOMAXPROCS(0)
	}
	if c.Workers < 1 {
		return 1
	}
	return c.Workers
}

// Result aggregates a campaign cell's outcome.
type Result struct {
	Rates       Rates
	Steps       int
	TrialSteps  int
	Evals       int64 // all RHS evaluations including detector redundancy
	WallSeconds float64
	MeanOrder   float64 // mean double-checking order (LBDC/IBDC only)
	MemVectors  float64 // detector's persistent extra vectors (mean)

	// Workers is the resolved worker count that produced this result.
	Workers int
	// CPUSeconds sums the per-replicate execution times across all workers —
	// the serial-equivalent work the campaign performed, as inflated by any
	// contention between the workers.
	CPUSeconds float64
	// Speedup is CPUSeconds / WallSeconds, the parallel engine's wall-clock
	// speedup over an ideal serial execution of the same replicates (~1.0
	// when Workers is 1). Contention between workers (shared caches, memory
	// bandwidth, a busy host) inflates CPUSeconds, so the number overstates
	// the speedup over a real serial run: on the 2-vCPU oscillator pass it
	// read 1.8–1.9 where serial wall over 2-worker wall was 1.25–1.57.
	Speedup float64

	// Trace holds the merged per-trial step trace when Config.Trace is set
	// (nil otherwise). Events appear in replicate order, each stamped with
	// its replicate index and detector label, so the trace is bitwise
	// identical for every worker count.
	Trace *telemetry.Recorder
	// Metrics holds the merged campaign metrics registry when
	// Config.Metrics is set (nil otherwise). Everything outside the
	// telemetry.TimePrefix namespace is deterministic and worker-count
	// invariant.
	Metrics *telemetry.Metrics
}

// Canonical returns the deterministic portion of the result: wall-clock and
// scheduling fields are zeroed — and the observability attachments dropped —
// so results produced with different worker counts or telemetry settings
// can be compared bit-for-bit.
func (r *Result) Canonical() Result {
	c := *r
	c.WallSeconds, c.CPUSeconds, c.Speedup, c.Workers = 0, 0, 0, 0
	c.Trace, c.Metrics = nil, nil
	return c
}

// makeDetector builds the campaign cell's detector from the control
// registry (the detectors in internal/core register themselves; "classic"
// and "oracle" resolve to nil validators — the oracle's clean-shadow
// validator is constructed by runReplicate, which owns that machinery).
func makeDetector(kind DetectorKind, tab *control.Tableau, sys control.System, cfg *Config) (control.Detector, error) {
	det, err := control.New(string(kind), control.Spec{
		Tab:        tab,
		Sys:        sys,
		NoAdapt:    cfg.NoAdapt,
		FixedOrder: cfg.FixedOrder,
	})
	if err != nil {
		return control.Detector{}, fmt.Errorf("harness: unknown detector %q", kind)
	}
	return det, nil
}

func init() {
	// The oracle is a harness construct, not a detector implementation: its
	// clean-shadow validator needs the replicate's injection plan and scratch
	// arena, so runReplicate builds it after this registry lookup.
	control.Register("oracle", func(control.Spec) (control.Detector, error) {
		return control.Detector{}, nil
	})
}

// Run executes the campaign cell until MinInjections SDCs have been applied.
// Replicates run on cfg.Workers workers (see Config.Workers); the result is
// bitwise identical for every worker count.
func Run(cfg Config) (*Result, error) {
	//lint:allow ctxflow -- compatibility wrapper pinned to Background by its signature; callers needing cancellation use RunContext
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with cancellation: when ctx is cancelled the campaign
// abandons its queued replicates, halts in-flight integrations on the next
// step boundary, waits for its workers, and returns ctx's error. A
// cancelled campaign returns no partial Result — the stopping rule makes a
// partial merge indistinguishable from a shorter campaign, so serving it
// would poison determinism-keyed caches. Cancellation is checked between
// replicates and every haltCheckInterval accepted steps inside one, so the
// return is prompt even mid-integration.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if cfg.Problem == nil || cfg.Tab == nil || cfg.Injector == nil {
		return nil, fmt.Errorf("harness: Problem, Tab and Injector are required")
	}
	minInj := cfg.MinInjections
	if minInj == 0 {
		minInj = 1000
	}
	maxRuns := cfg.MaxRuns
	if maxRuns == 0 {
		maxRuns = 10000
	}
	workers := cfg.workers()

	res := &Result{Workers: workers}
	if cfg.Trace {
		res.Trace = telemetry.NewRecorder(cfg.traceCap())
	}
	if cfg.Metrics {
		res.Metrics = telemetry.NewMetrics()
	}
	salt := uint64(0xc0ffee)
	if cfg.FixedStep {
		salt = 0xf1eed
	}
	root := xrand.New(cfg.Seed ^ salt)
	//lint:allow walltime -- §VI-B wall-clock overhead metric; WallSeconds is excluded from determinism comparisons
	start := time.Now()

	var m merger
	if err := runCampaign(ctx, &cfg, res, &m, root, minInj, maxRuns, workers); err != nil {
		return nil, err
	}
	//lint:allow walltime -- §VI-B wall-clock overhead metric; WallSeconds is excluded from determinism comparisons
	res.WallSeconds = time.Since(start).Seconds()
	m.finish(res)
	return res, nil
}

// repJob carries the deterministic inputs of one replicate: its index and
// the substreams split from the campaign root in replicate order. It holds
// them by value and no pointers, so a job shares no memory with its wave's
// other jobs (see workerScratch).
type repJob struct {
	rep      int
	planRNG  xrand.RNG
	stateRNG xrand.RNG // unused unless StateProb > 0
}

// nextJob draws replicate rep's substreams from root. It must be called in
// strictly increasing replicate order: Split advances the root stream, and
// the replicate-order draw sequence is what makes every worker count
// reproduce a replicate-at-a-time run bit for bit.
func nextJob(cfg *Config, root *xrand.RNG, rep int) repJob {
	j := repJob{rep: rep, planRNG: *root.Split(uint64(rep))}
	if cfg.StateProb > 0 {
		j.stateRNG = *root.Split(uint64(rep) ^ 0x517a7e)
	}
	return j
}

// repOutcome is one replicate's contribution to the campaign Result.
type repOutcome struct {
	rates      Rates
	steps      int
	trialSteps int
	evals      int64
	memVecs    float64
	meanOrder  float64
	seconds    float64
	trace      *telemetry.Recorder // nil unless cfg.Trace
	metrics    *telemetry.Metrics  // nil unless cfg.Metrics
	err        error
}

// repWiring is everything one replicate's integration needs, built by
// wireReplicate and plugged into the worker's integrator by
// startReplicate.
type repWiring struct {
	sys       *control.CountingSystem
	det       control.Detector
	ctrl      control.Controller
	validator control.Validator
	hook      control.StageHook
	stateHook func(t float64, x la.Vec) int
	onTrial   func(*ode.Trial)
	tracer    telemetry.Tracer
}

// wireReplicate builds one replicate's mutable machinery: injection plans
// on the job's substreams, the detector instance, the oracle's clean-shadow
// validator, the significance-labelling OnTrial observer, and the
// observability attachments (written into out). The heavy buffers live in
// scr, the worker's arena recycled across its replicates.
func wireReplicate(cfg *Config, job repJob, scr *workerScratch, out *repOutcome) (repWiring, error) {
	p := cfg.Problem
	sys := p.SysInstance()

	// The plans advance the worker's copies of the job's streams.
	scr.planRNG = job.planRNG
	plan := inject.NewPlan(&scr.planRNG, cfg.Injector)
	plan.Prob = cfg.injectProb()
	var statePlan *inject.Plan
	if cfg.StateProb > 0 {
		scr.stateRNG = job.stateRNG
		statePlan = inject.NewPlan(&scr.stateRNG, cfg.Injector)
		statePlan.Prob = cfg.StateProb
	}

	counting := &control.CountingSystem{Sys: sys}
	det, err := makeDetector(cfg.Detector, cfg.Tab, counting, cfg)
	if err != nil {
		return repWiring{}, err
	}

	ctrl := control.DefaultController(p.TolA, p.TolR)
	ctrl.MaxNorm = cfg.MaxNorm
	hook := control.StageHook(plan.Hook)
	if cfg.Field != nil {
		sel := *cfg.Field
		sel.Inner = cfg.Injector
		hook = plan.HookFor(sel)
	}
	w := repWiring{sys: counting, det: det, ctrl: ctrl, validator: det.Validator, hook: hook}
	if statePlan != nil {
		w.stateHook = statePlan.StateHook
	}
	if cfg.Trace {
		out.trace = telemetry.NewRecorder(cfg.traceCap())
		out.trace.SetStamp(job.rep, string(cfg.Detector))
		w.tracer = out.trace
	}
	var stepSizes *telemetry.Histogram
	if cfg.Metrics {
		out.metrics = telemetry.NewMetrics()
		stepSizes = out.metrics.Histogram(MStepSize, telemetry.Log10Edges(-12, 2))
	}

	stepperFor(&scr.shadow, cfg.Tab, sys) // clean reference, uncounted
	vecFor(&scr.cw, sys.Dim())            // clean weights
	vecFor(&scr.xt, sys.Dim())            // clean approximation solution

	if cfg.Detector == Oracle {
		// The oracle runs inside Decide and the significance label in
		// OnTrial, one after the other on this worker and from the same
		// stored state, so they share the shadow and its vectors.
		w.validator = oracleValidator(func(c *control.CheckContext) bool {
			return scaledSignificant(scr, plan, &ctrl, c.T, c.H, c.XStored, c.XProp)
		})
	}

	w.onTrial = func(tr *ode.Trial) {
		rejected := tr.ClassicReject || tr.ValidatorReject
		corrupted := tr.Injections > 0 || tr.StateInjections > 0 || tr.InheritedCorruption
		if stepSizes != nil && tr.Accepted {
			stepSizes.Observe(tr.H)
		}
		significant := false
		if corrupted {
			// Significance: recompute the step cleanly (from the clean stored
			// state — XStart is never the corrupted transient copy) and
			// compare the corrupted solution with it.
			if cfg.FixedStep {
				restore := plan.Pause()
				clean := scr.shadow.Trial(tr.T, tr.H, tr.XStart, nil, nil)
				restore()
				significant = fixedSignificant(tr.XProp, clean.XProp, clean.ErrVec)
			} else {
				significant = scaledSignificant(scr, plan, &ctrl, tr.T, tr.H, tr.XStart, tr.XProp)
			}
			if significant {
				tr.Significance = telemetry.SigSignificant
			} else {
				tr.Significance = telemetry.SigBenign
			}
		}
		// InheritedCorruption with zero injections contributes no injection
		// count: the carried-over stage was already counted on the step
		// that produced it.
		out.rates.Tally(corrupted, rejected, significant, tr.Injections+tr.StateInjections)
	}
	return w, nil
}

// scaledSignificant is the ground truth of an adaptive cell (§IV-A): it
// recomputes the step (t, h) from the clean stored state x on the worker's
// shadow, with injection paused, and reports whether xProp is not finite or
// its real scaled LTE against the clean approximation solution exceeds 1.
// It overwrites scr's shadow and its two significance vectors.
func scaledSignificant(scr *workerScratch, plan *inject.Plan, ctrl *control.Controller, t, h float64, x, xProp la.Vec) bool {
	restore := plan.Pause()
	clean := scr.shadow.Trial(t, h, x, nil, nil)
	restore()
	scr.xt.CopyFrom(clean.XProp)
	scr.xt.Sub(clean.ErrVec) // x~ = x - (x - x~)
	ctrl.Weights(scr.cw, clean.XProp)
	return xProp.HasNaNOrInf() || ctrl.ScaledDiff(xProp, scr.xt, scr.cw) > 1
}

// fixedSignificant is the ground truth of a fixed-step cell, Hot Rode's
// convention, since a fixed-step solver has no tolerance to compare with: a
// corrupted proposal is significant when it is not finite, or when its
// max-norm deviation from the clean proposal exceeds a tenth of the clean
// error estimate's max norm (1e-300 when that estimate is 0).
func fixedSignificant(xProp, clean, cleanErr la.Vec) bool {
	if xProp.HasNaNOrInf() {
		return true
	}
	thresh := cleanErr.NormInf() / 10
	if thresh == 0 {
		thresh = 1e-300
	}
	var dev float64
	for i := range clean {
		if d := math.Abs(xProp[i] - clean[i]); d > dev {
			dev = d
		}
	}
	return dev > thresh
}

// collectOutcome folds one finished integration into its repOutcome: the
// run tally, the counters, and (when enabled) the metric counters.
func collectOutcome(out *repOutcome, w repWiring, runErr error, st ode.Stats, seconds float64) {
	out.rates.TallyRun(runErr != nil)
	out.steps = st.Steps
	out.trialSteps = st.TrialSteps
	out.evals = w.sys.Evals
	out.memVecs = w.det.MemVectors()
	out.meanOrder = w.det.MeanOrder()
	out.seconds = seconds
	if m := out.metrics; m != nil {
		m.Counter(MSteps).Add(int64(st.Steps))
		m.Counter(MTrialSteps).Add(int64(st.TrialSteps))
		m.Counter(MRejectedClassic).Add(int64(st.RejectedClassic))
		m.Counter(MRejectedValidator).Add(int64(st.RejectedValidator))
		m.Counter(MFPRescues).Add(int64(st.FPRescues))
		m.Counter(MRHSEvals).Add(out.evals)
		m.Counter(MInjections).Add(int64(out.rates.Injections))
		m.Counter(MSigTrials).Add(int64(out.rates.SigTrials))
		m.Counter(MSigAccepted).Add(int64(out.rates.SigAccepted))
		m.Counter(MRuns).Add(int64(out.rates.Runs))
		m.Counter(MDiverged).Add(int64(out.rates.Diverged))
		m.Histogram(MReplicateSeconds, telemetry.Log10Edges(-6, 4)).Observe(out.seconds)
	}
}

// haltCheckInterval is how many accepted steps an in-flight replicate
// takes between context-cancellation polls. Wide enough that the
// uncontended ctx.Err mutex never shows in a step profile, narrow enough
// that even a PDE-sized replicate abandons within milliseconds of a
// cancel.
const haltCheckInterval = 64

// haltFunc adapts ctx to the integrator's Halt hook, polling ctx.Err only
// every haltCheckInterval calls. It returns nil for contexts that can never
// be cancelled, so the uncancellable path keeps a nil Halt and pays one
// pointer comparison per step.
func haltFunc(ctx context.Context) func() bool {
	if ctx.Done() == nil {
		return nil
	}
	var n uint
	return func() bool {
		n++
		return n%haltCheckInterval == 0 && ctx.Err() != nil
	}
}

// runReplicate integrates the problem once under injection, with every
// mutable resource (RNG substreams, right-hand side, integrator, detector,
// shadow stepper, scratch vectors) owned exclusively by this call. The
// heavy machinery lives in scr, a worker-owned arena recycled across the
// worker's replicates (see workerScratch). A cancelled ctx surfaces as
// out.err (the context's error), never as a diverged-run tally.
func runReplicate(ctx context.Context, cfg *Config, job repJob, scr *workerScratch) repOutcome {
	var out repOutcome
	if err := ctx.Err(); err != nil {
		out.err = err
		return out
	}
	//lint:allow walltime -- per-replicate wall time feeds the §VI-B overhead ratio, never the deterministic outputs
	repStart := time.Now()
	w, err := wireReplicate(cfg, job, scr, &out)
	if err != nil {
		out.err = err
		return out
	}
	in := &scr.in
	startReplicate(in, cfg, w, haltFunc(ctx))
	_, runErr := in.Run()
	if errors.Is(runErr, ode.ErrHalted) {
		// The halt only fires on a cancelled context: report the
		// cancellation instead of folding the abandoned run into the
		// campaign numbers.
		out.err = ctx.Err()
		return out
	}
	//lint:allow walltime -- per-replicate wall time feeds the §VI-B overhead ratio, never the deterministic outputs
	collectOutcome(&out, w, runErr, in.Stats, time.Since(repStart).Seconds())
	return out
}

// startReplicate reconfigures a worker's integrator from scratch for one
// replicate's wiring and initializes it: every exported field is assigned
// (optional hooks explicitly to nil) so nothing leaks from the previous
// replicate, while Init recycles the internal buffers.
func startReplicate(in *ode.Integrator, cfg *Config, w repWiring, halt func() bool) {
	p := cfg.Problem
	in.Tab = cfg.Tab
	in.Method = nil
	in.Ctrl = w.ctrl
	in.Validator = w.validator
	in.Hook = w.hook
	in.OnTrial = w.onTrial
	in.Tracer = w.tracer
	in.StateHook = w.stateHook
	in.Halt = halt
	in.MaxSteps = 1 << 18
	in.MaxTrials = 0
	in.MinStep = 0
	in.MaxStep = p.MaxStep
	in.NoReuseFirstStage = cfg.NoReuseFirstStage
	in.FixedStep = cfg.FixedStep
	in.Init(w.sys, p.T0, p.TEnd, p.X0, p.H0)
}

// oracleValidator adapts a significance predicate to control.Validator.
type oracleValidator func(*control.CheckContext) bool

// Validate implements control.Validator.
func (f oracleValidator) Validate(c *control.CheckContext) control.Verdict {
	if f(c) {
		return control.VerdictReject
	}
	return control.VerdictAccept
}

// CleanRun integrates the problem once without injection and detection and
// returns the evaluation count and wall time — the overhead baseline.
func CleanRun(p *problems.Problem, tab *control.Tableau) (evals int64, wall float64, err error) {
	counting := &control.CountingSystem{Sys: p.Sys}
	in := &ode.Integrator{Tab: tab, Ctrl: control.DefaultController(p.TolA, p.TolR), MaxSteps: 1 << 18, MaxStep: p.MaxStep}
	in.Init(counting, p.T0, p.TEnd, p.X0, p.H0)
	//lint:allow walltime -- the clean-run wall baseline of the §VI-B overhead ratio
	start := time.Now()
	_, err = in.Run()
	//lint:allow walltime -- the clean-run wall baseline of the §VI-B overhead ratio
	return counting.Evals, time.Since(start).Seconds(), err
}

// MeasureOverheads compares a protected run under injection against the
// clean classic baseline (Table IV's definition: the computation-time ratio
// between the method with injected errors and the classic adaptive
// controller without injected errors).
func MeasureOverheads(cfg Config) (Overheads, *Result, error) {
	baseEvals, baseWall, err := CleanRun(cfg.Problem, cfg.Tab)
	if err != nil {
		return Overheads{}, nil, fmt.Errorf("harness: clean baseline failed: %w", err)
	}
	res, err := Run(cfg)
	if err != nil {
		return Overheads{}, nil, err
	}
	runs := float64(res.Rates.Runs)
	if runs == 0 {
		return Overheads{}, res, fmt.Errorf("harness: no completed runs")
	}
	perRunEvals := float64(res.Evals) / runs
	// CPUSeconds is the per-replicate compute time summed across workers, so
	// the wall overhead stays comparable to the serial baseline even when
	// the campaign itself ran on many workers.
	perRunWall := res.CPUSeconds / runs
	o := Overheads{
		MemoryPct:  100 * res.MemVectors / float64(cfg.Tab.Stages()+2),
		ComputePct: 100 * (perRunEvals - float64(baseEvals)) / float64(baseEvals),
		WallPct:    100 * (perRunWall - baseWall) / baseWall,
	}
	return o, res, nil
}

// Replicated runs the same campaign with k different root seeds and
// reports the across-seed mean and sample standard deviation of each rate
// (percent) — the seed-robustness check behind the single-seed tables.
type Replicated struct {
	FPRMean, FPRStd   float64
	TPRMean, TPRStd   float64
	SFNRMean, SFNRStd float64
	Results           []*Result
}

// ReplicaSeeds derives k root seeds for seed-varied campaign replicas via
// xrand splits of the base seed. Unlike the former fixed-stride arithmetic
// (base + i*1000003), split-derived seeds give statistically independent,
// pairwise non-overlapping campaign root streams.
func ReplicaSeeds(base uint64, k int) []uint64 {
	root := xrand.New(base ^ 0x5eedfa11)
	seeds := make([]uint64, k)
	for i := range seeds {
		seeds[i] = root.Split(uint64(i)).Uint64()
	}
	return seeds
}

// RunReplicated executes k seed-varied replicas of cfg, one after another,
// each through Run at cfg.Workers.
func RunReplicated(cfg Config, k int) (*Replicated, error) {
	if k < 1 {
		k = 3
	}
	var fprs, tprs, sfnrs []float64
	out := &Replicated{}
	for _, seed := range ReplicaSeeds(cfg.Seed, k) {
		c := cfg
		c.Seed = seed
		res, err := Run(c)
		if err != nil {
			return nil, err
		}
		out.Results = append(out.Results, res)
		fprs = append(fprs, res.Rates.FPR())
		tprs = append(tprs, res.Rates.TPR())
		sfnrs = append(sfnrs, res.Rates.SFNR())
	}
	out.FPRMean, out.FPRStd = stats.MeanStd(fprs)
	out.TPRMean, out.TPRStd = stats.MeanStd(tprs)
	out.SFNRMean, out.SFNRStd = stats.MeanStd(sfnrs)
	return out, nil
}
