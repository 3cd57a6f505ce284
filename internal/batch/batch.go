// Package batch implements the lockstep replicate engine: it advances up to
// B replicates ("lanes") of one (problem, detector) campaign cell
// simultaneously, holding the trial-step state in structure-of-arrays form
// so the Runge-Kutta stage assembly, the proposed-solution and
// error-estimate accumulation, and the buffer copies run as dense
// auto-vectorizable loops across the batch.
//
// The engine is a bit-exact re-execution of ode.Integrator, lane by lane:
// every floating-point operation a lane performs has the same operands in
// the same order as a serial integration of that replicate, every RNG draw
// (injection hooks, state hooks) happens in the same per-lane sequence, and
// the per-lane control machinery — control.Engine.Decide, the validator
// double-check, the history ring, the step-size laws — is the very same
// scalar code the serial path runs. The serial integrator therefore remains
// the bitwise oracle: the differential suites in this package and in
// internal/harness reject any batch whose trajectories, verdicts, or
// telemetry differ from the serial reference by a single byte.
//
// Divergence control is mask-then-compact. Lanes never stall each other:
// one lockstep round performs exactly one trial per live lane, so a lane
// whose trial is rejected simply retries (with its own adjusted step size)
// in the next round while its neighbours move on to their next steps. Lanes
// only leave the batch when they finish or fail; retirement swaps the lane
// out of the dense slot range [0, n) so the hot loops always run over
// contiguous live slots, never over a sparse mask.
package batch

import (
	"fmt"
	"math"

	"repro/internal/control"
	"repro/internal/la"
	"repro/internal/ode"
	"repro/internal/telemetry"
)

// Config carries the integrator knobs shared by every lane of a batch. The
// fields mirror ode.Integrator's exported configuration and default
// identically (see ode.Integrator.Init), so a batch and a serial run built
// from the same zero values execute the same step protocol.
type Config struct {
	Tab  *ode.Tableau
	Ctrl ode.Controller

	MaxSteps  int     // safety bound on accepted steps per lane (0 = 1<<20)
	MaxTrials int     // safety bound on trials per step (0 = 1000)
	MinStep   float64 // below this a lane fails (0 = 1e-14 * lane span)
	MaxStep   float64 // upper clamp on the step size (0 = none)
	// NoReuseFirstStage disables carrying f(t_n, x_n) into the next step's
	// first stage (the §V-B FSAL/FProp reuse), exactly as in ode.Integrator.
	NoReuseFirstStage bool
}

// historyDepth is the per-lane solution ring depth, the serial
// integrator's.
const historyDepth = 8

// withDefaults resolves the zero values to the serial integrator's defaults
// (MinStep stays 0 here: it defaults per lane, from the lane's time span).
func (c Config) withDefaults() Config {
	if c.Tab == nil {
		c.Tab = ode.HeunEuler()
	}
	if c.Ctrl == (ode.Controller{}) {
		c.Ctrl = ode.DefaultController(1e-4, 1e-4)
	}
	if c.MaxSteps == 0 {
		c.MaxSteps = 1 << 20
	}
	if c.MaxTrials == 0 {
		c.MaxTrials = 1000
	}
	return c
}

// LaneConfig is the per-replicate wiring of one lane: its exclusively owned
// right-hand side, detector, fault-injection hooks, and observers. The
// fields correspond one-to-one to ode.Integrator's per-replicate fields.
type LaneConfig struct {
	Sys       ode.System
	Validator ode.Validator
	Hook      ode.StageHook
	// StateHook may corrupt a transient copy of the lane's solution as read
	// by one trial (the §V-D state-SDC scenario); the stored solution stays
	// clean, exactly as in the serial integrator.
	StateHook func(t float64, x la.Vec) int
	OnTrial   func(*ode.Trial)
	Tracer    telemetry.Tracer

	T0, TEnd float64
	X0       la.Vec
	H0       float64
}

// Lane is one replicate's scalar state within the batch: the stored
// solution, history ring, protected-step engine, step-size controller
// memory, and the in-progress-step bookkeeping (attempt count, effective
// step size). Everything a lane owns is private to it; the only shared
// mutable storage is the engine's structure-of-arrays scratch, which is
// fully rewritten every round.
type Lane struct {
	cfg       LaneConfig
	engine    control.Engine
	hist      *ode.History
	gen       uint64 // bumped by AddLane; invalidates staged LaneDecide views
	scalarVal bool   // validator runs its scalar fallback, so it may read ErrVec

	t, tEnd float64
	h       float64 // step size the next trial of a NEW step will use
	hEff    float64 // effective step size of the in-progress step
	minStep float64

	x         la.Vec // stored (clean) solution
	fNext     la.Vec // cached f(t, x) reusable as the next first stage
	xTrialBuf la.Vec // transient state copy for StateHook corruption
	weights   la.Vec

	// Per-lane gather buffers: dense copies of the lane's trial columns,
	// identity-stable across rounds so the engine's staged CheckContext and
	// the LaneDecide views stay valid (views of these are handed to
	// lane-scalar code under the usual only-during-the-call read contract).
	xPropV la.Vec // proposed solution (column s of xprop)
	errV   la.Vec // embedded error estimate (column s of errv)
	fsalV  la.Vec // FSAL last stage f(T+H, XProp), when the pair has one

	xTrial         la.Vec // the state this round's trial reads: x or xTrialBuf
	stateInj       int
	haveFNext      bool
	fNextCorrupted bool
	attempt        int // 1-based attempt count of the in-progress step; 0 = new step

	// per-round trial counters (the serial TrialResult fields)
	resEvals, resInjections, resLastInj int

	stats ode.Stats
	trial ode.Trial
	err   error
	done  bool
}

// Err returns the lane's terminal error: nil after reaching TEnd,
// ErrStepSizeUnderflow/ErrTooManyTrials or a MaxSteps overrun otherwise.
func (ln *Lane) Err() error { return ln.err }

// Stats returns the lane's integration counters.
func (ln *Lane) Stats() ode.Stats { return ln.stats }

// T returns the lane's current time.
func (ln *Lane) T() float64 { return ln.t }

// X returns a view of the lane's current solution; copy to retain.
func (ln *Lane) X() la.Vec { return ln.x }

// History returns the lane's accepted-solution ring.
func (ln *Lane) History() *ode.History { return ln.hist }

func (ln *Lane) isDone() bool { return ln.t >= ln.tEnd-1e-14*math.Abs(ln.tEnd) }

func (ln *Lane) finished() bool { return ln.done || ln.err != nil }

// Integrator is the lockstep engine. Build one with New, add up to width
// lanes with AddLane, then Run (or step round by round with Round). After a
// run, Reset recycles every buffer — the structure-of-arrays storage, the
// lane pool with its histories and scratch vectors — for the next group of
// replicates, so steady-state campaign use allocates nothing per group
// beyond what the lanes' own wiring allocates.
type Integrator struct {
	cfg   Config
	rawC  Config // the caller's config, for Matches
	width int
	dim   int
	db    []float64 // B - BHat, as in ode.NewStepper

	lanes []*Lane // slots [0, n) are live; [n, width) are the free pool
	n     int

	// Structure-of-arrays trial state: dim rows of width columns, one column
	// per slot. Rows are contiguous, so the assembly loops below vectorize
	// across the batch. All of it is scratch, rewritten every round from the
	// lanes' scalar state — compaction therefore never has to move columns.
	xs    []float64   // the state each lane's trial reads (xTrial)
	xtmp  []float64   // stage state buffer
	xprop []float64   // proposed solutions
	errv  []float64   // embedded error estimates
	k     [][]float64 // stage derivatives K_i

	heffs  []float64 // per-slot effective step sizes
	alphas []float64 // per-slot AXPY coefficients

	// Per-lane gather scratch for the right-hand-side evaluations, reused
	// sequentially within a round. Views of these are handed to Sys.Eval under
	// the same only-during-the-call validity contract the serial integrator
	// uses. (The decision path's gathers live on the lanes: Lane.xPropV/errV/
	// fsalV, which must keep their identity across rounds.)
	evalX, evalK la.Vec

	// Lane-planar decision state: the batched engine and the per-slot
	// LaneDecide/Check staging. ldLane/ldGen memoize which lane (and which
	// AddLane generation of it) each staged LaneDecide describes, so rounds
	// without compaction churn rewrite only the per-trial scalars.
	be     control.BatchEngine
	lds    []control.LaneDecide
	checks []control.Check
	ldLane []*Lane
	ldGen  []uint64
}

// New returns a lockstep integrator for up to width lanes of dimension dim
// stepping the pair cfg.Tab. It panics on an invalid tableau or degenerate
// shape, mirroring ode.NewStepper.
func New(cfg Config, width, dim int) *Integrator {
	if width < 1 {
		panic(fmt.Sprintf("batch: width must be >= 1, got %d", width))
	}
	if dim < 1 {
		panic(fmt.Sprintf("batch: dim must be >= 1, got %d", dim))
	}
	b := &Integrator{rawC: cfg, cfg: cfg.withDefaults(), width: width, dim: dim}
	if err := b.cfg.Tab.Validate(); err != nil {
		panic(err)
	}
	stages := b.cfg.Tab.Stages()
	b.db = make([]float64, stages)
	for i := range b.db {
		b.db[i] = b.cfg.Tab.B[i] - b.cfg.Tab.BHat[i]
	}
	b.lanes = make([]*Lane, width)
	for i := range b.lanes {
		b.lanes[i] = &Lane{}
	}
	rw := dim * width
	b.xs = make([]float64, rw)
	b.xtmp = make([]float64, rw)
	b.xprop = make([]float64, rw)
	b.errv = make([]float64, rw)
	b.k = make([][]float64, stages)
	for i := range b.k {
		b.k[i] = make([]float64, rw)
	}
	b.heffs = make([]float64, width)
	b.alphas = make([]float64, width)
	b.evalX = la.NewVec(dim)
	b.evalK = la.NewVec(dim)
	b.lds = make([]control.LaneDecide, width)
	b.checks = make([]control.Check, width)
	b.ldLane = make([]*Lane, width)
	b.ldGen = make([]uint64, width)
	return b
}

// Matches reports whether this integrator was built for exactly (cfg, width,
// dim) — the recycling check campaign scratch arenas use before Reset.
func (b *Integrator) Matches(cfg Config, width, dim int) bool {
	return b.rawC == cfg && b.width == width && b.dim == dim
}

// Live returns the number of live lanes.
func (b *Integrator) Live() int { return b.n }

// Reset retires all lanes, recycling the pool for the next AddLane calls.
func (b *Integrator) Reset() { b.n = 0 }

// AddLane initializes the next free lane with lc and returns it. The lane's
// buffers (history ring, solution vectors, decision engine scratch) are
// recycled from the pool when their shapes match, exactly like the serial
// integrator's Init; reuse changes no numbers because every reused buffer is
// fully overwritten before it is read. AddLane panics when the batch is full
// or the lane's system dimension disagrees with the integrator's.
func (b *Integrator) AddLane(lc LaneConfig) *Lane {
	if b.n == b.width {
		panic(fmt.Sprintf("batch: all %d lanes in use", b.width))
	}
	if lc.Sys == nil || lc.Sys.Dim() != b.dim {
		panic("batch: lane system missing or dimension mismatch")
	}
	if len(lc.X0) != b.dim {
		panic("batch: lane X0 dimension mismatch")
	}
	ln := b.lanes[b.n]
	b.n++
	ln.gen++
	ln.cfg = lc
	ln.t, ln.tEnd = lc.T0, lc.TEnd
	ln.h = lc.H0
	ln.hEff = 0
	ln.minStep = b.cfg.MinStep
	if ln.minStep == 0 {
		ln.minStep = 1e-14 * math.Max(1, math.Abs(lc.TEnd-lc.T0))
	}
	m := b.dim
	if ln.hist != nil && ln.hist.Dim() == m {
		ln.hist.Reset()
	} else {
		ln.hist = ode.NewHistory(historyDepth, m)
	}
	if len(ln.x) != m {
		ln.x = la.NewVec(m)
		ln.fNext = la.NewVec(m)
		ln.xTrialBuf = la.NewVec(m)
		ln.weights = la.NewVec(m)
		ln.xPropV = la.NewVec(m)
		ln.errV = la.NewVec(m)
		ln.fsalV = la.NewVec(m)
	}
	ln.x.CopyFrom(lc.X0)
	ln.xTrial = nil
	ln.stateInj = 0
	ln.haveFNext = false
	ln.fNextCorrupted = false
	ln.attempt = 0
	ln.resEvals, ln.resInjections, ln.resLastInj = 0, 0, 0
	ln.stats = ode.Stats{}
	ln.trial = ode.Trial{}
	ln.err = nil
	ln.done = false
	ln.engine.Reset(m)
	ln.engine.Validator = lc.Validator
	// Only validators without the batched seam read ctx.ErrVec (the lane
	// walk's scalar fallback); everyone else gets the error estimate through
	// the batched scoring, so their errV gather can be skipped per round.
	_, batched := lc.Validator.(control.BatchValidator)
	ln.scalarVal = lc.Validator != nil && !batched
	ln.hist.Push(lc.T0, 0, ln.x)
	return ln
}

// Run advances every lane to completion: it executes lockstep rounds until
// each lane has reached its TEnd or failed. Per-lane outcomes are read off
// the Lane handles returned by AddLane.
func (b *Integrator) Run() {
	for b.Round() {
	}
}

// Round executes one lockstep round — exactly one trial per live lane — and
// reports whether live lanes remain. A round is the batched analog of one
// iteration of the serial integrator's attempt loop: per-lane pre-trial
// bookkeeping, one batched structure-of-arrays trial, the lane-planar
// protected-step decision for the whole batch, then the per-lane
// accept/reject state updates with divergence handled per lane.
func (b *Integrator) Round() bool {
	for s := 0; s < b.n; s++ {
		b.prep(b.lanes[s])
	}
	b.compact()
	if b.n == 0 {
		return false
	}
	for s := 0; s < b.n; s++ {
		b.load(b.lanes[s], s)
	}
	b.trialRound()
	b.decideLanes()
	for s := 0; s < b.n; s++ {
		b.finish(b.lanes[s], s)
	}
	b.compact()
	return b.n > 0
}

// prep runs a lane's pre-trial bookkeeping, mirroring the serial Step
// preamble and attempt-loop guards: the Done and MaxSteps checks before a
// new step, the step-size clamps, the recomputation-latch reset, the
// MaxTrials and MinStep guards, and the transient state-corruption hook.
// Lanes that finish or fail here are retired by the following compact.
func (b *Integrator) prep(ln *Lane) {
	if ln.attempt == 0 {
		if ln.isDone() {
			ln.done = true
			return
		}
		if ln.stats.Steps >= b.cfg.MaxSteps {
			ln.err = fmt.Errorf("ode: exceeded MaxSteps=%d at t=%g", b.cfg.MaxSteps, ln.t)
			return
		}
		h := ln.h
		if b.cfg.MaxStep > 0 && h > b.cfg.MaxStep {
			h = b.cfg.MaxStep
		}
		if ln.t+h > ln.tEnd {
			h = ln.tEnd - ln.t
		}
		ln.hEff = h
		ln.engine.BeginStep()
	}
	ln.attempt++
	if ln.attempt > b.cfg.MaxTrials {
		ln.err = ode.ErrTooManyTrials
		return
	}
	if ln.hEff < ln.minStep {
		ln.err = ode.ErrStepSizeUnderflow
		return
	}
	ln.xTrial = ln.x
	ln.stateInj = 0
	if ln.cfg.StateHook != nil {
		ln.xTrialBuf.CopyFrom(ln.x)
		ln.stateInj = ln.cfg.StateHook(ln.t, ln.xTrialBuf)
		if ln.stateInj > 0 {
			ln.xTrial = ln.xTrialBuf
		}
	}
	ln.resEvals, ln.resInjections, ln.resLastInj = 0, 0, 0
}

// load scatters a lane's scalar trial inputs into slot s of the
// structure-of-arrays storage: its effective step size, the state its trial
// reads, and — when the first stage is reused — its cached f(t, x).
func (b *Integrator) load(ln *Lane, s int) {
	w := b.width
	b.heffs[s] = ln.hEff
	for d := 0; d < b.dim; d++ {
		b.xs[d*w+s] = ln.xTrial[d]
	}
	if ln.haveFNext {
		k0 := b.k[0]
		for d := 0; d < b.dim; d++ {
			k0[d*w+s] = ln.fNext[d]
		}
	}
}

// decideLanes runs the lane-planar protected-step decision on the freshly
// computed batched trial: it gathers every live slot's proposal, error
// estimate, and (when the pair has one) FSAL last stage into the lane's
// identity-stable dense views, stages the per-slot LaneDecide — in full when
// the slot's lane or AddLane generation changed, scalars-only otherwise —
// and hands the whole round to control.BatchEngine.DecideLanes, which fills
// b.checks with each lane's verdict.
func (b *Integrator) decideLanes() {
	tab := b.cfg.Tab
	w, dim := b.width, b.dim
	var kLast []float64
	if tab.FSAL {
		kLast = b.k[tab.Stages()-1]
	}
	for s := 0; s < b.n; s++ {
		ln := b.lanes[s]
		gatherCol(ln.xPropV, b.xprop, s, dim, w)
		if ln.scalarVal {
			// Only a scalar-fallback validator reads the dense ErrVec view;
			// batched scoring reads the error rows in place.
			gatherCol(ln.errV, b.errv, s, dim, w)
		}
		var fsal la.Vec
		if kLast != nil {
			gatherCol(ln.fsalV, kLast, s, dim, w)
			fsal = ln.fsalV
		}
		ld := &b.lds[s]
		if b.ldLane[s] != ln || b.ldGen[s] != ln.gen {
			*ld = control.LaneDecide{
				Eng:  &ln.engine,
				Step: ln.stats.Steps, T: ln.t, H: ln.hEff,
				XStart: ln.xTrial, XStored: ln.x, XProp: ln.xPropV, ErrVec: ln.errV,
				Weights: ln.weights, Hist: ln.hist,
				Sys: ln.cfg.Sys, Hook: ln.cfg.Hook, Fsal: fsal,
			}
			b.ldLane[s] = ln
			b.ldGen[s] = ln.gen
			continue
		}
		ld.Step = ln.stats.Steps
		ld.T, ld.H = ln.t, ln.hEff
		ld.XStart = ln.xTrial
		ld.Fsal = fsal
	}
	b.be.DecideLanes(&b.cfg.Ctrl, tab, dim, w, b.n, b.xprop, b.errv, b.lds, b.checks)
}

// finish applies slot s's decision to its lane: the counters, the observer
// callbacks, and the serial integrator's accept/reject state updates —
// divergent verdicts simply leave each lane's (attempt, hEff) where its own
// path put them.
func (b *Integrator) finish(ln *Lane, s int) {
	tab := b.cfg.Tab
	chk := &b.checks[s]
	var fsal la.Vec
	if tab.FSAL {
		fsal = ln.fsalV
	}
	ln.stats.TrialSteps++
	ln.stats.Evals += int64(ln.resEvals)
	ln.stats.Injections += int64(ln.resInjections)
	sErr1 := chk.SErr1
	ln.stats.Evals += int64(chk.FPropEvals)
	if chk.Verdict == ode.VerdictFPRescue {
		ln.stats.FPRescues++
	}
	accepted := chk.Accepted()

	if ln.cfg.OnTrial != nil || ln.cfg.Tracer != nil {
		// The trial record lives on the lane so taking its address for OnTrial
		// does not allocate per trial (the serial integrator's own layout).
		// Unobserved lanes skip the record entirely.
		ln.trial = ode.Trial{
			StepIndex: ln.stats.Steps, Attempt: ln.attempt,
			T: ln.t, H: ln.hEff,
			XStart: ln.x, XProp: ln.xPropV, Weights: ln.weights,
			SErr1:               sErr1,
			Injections:          ln.resInjections,
			StateInjections:     ln.stateInj,
			InheritedCorruption: ln.haveFNext && ln.fNextCorrupted,
			EstimateInjections:  chk.EstimateInjections,
			ClassicReject:       chk.ClassicReject,
			SErr2:               chk.SErr2,
			DetOrder:            chk.DetOrder,
			DetWindow:           chk.DetWindow,
			Significance:        telemetry.SigUnknown,
		}
		trial := &ln.trial
		switch chk.Verdict {
		case ode.VerdictReject:
			trial.ValidatorReject = true
		case ode.VerdictFPRescue:
			trial.FPRescue = true
		}
		trial.Accepted = accepted
		if ln.cfg.OnTrial != nil {
			ln.cfg.OnTrial(trial)
		}
		if ln.cfg.Tracer != nil {
			ln.cfg.Tracer.Record(trial.Event())
		}
	}

	if accepted {
		ln.t += ln.hEff
		ln.x.CopyFrom(ln.xPropV)
		ln.hist.Push(ln.t, ln.hEff, ln.x)
		ln.stats.Steps++
		// Cache f(t, x) for reuse as the next first stage.
		lastInj := 0
		switch {
		case b.cfg.NoReuseFirstStage:
			ln.haveFNext = false
		case fsal != nil:
			ln.fNext.CopyFrom(fsal)
			ln.haveFNext = true
			lastInj = ln.resLastInj
		case chk.FProp != nil:
			ln.fNext.CopyFrom(chk.FProp)
			ln.haveFNext = true
			lastInj = chk.EstimateInjections
		default:
			ln.haveFNext = false
		}
		ln.fNextCorrupted = ln.haveFNext && lastInj > 0
		ln.h = b.cfg.Ctrl.NewStepSize(ln.hEff, sErr1, tab.ControlOrder())
		if b.cfg.MaxStep > 0 && ln.h > b.cfg.MaxStep {
			ln.h = b.cfg.MaxStep
		}
		ln.attempt = 0
		if ln.isDone() {
			ln.done = true
		}
		return
	}

	if chk.ClassicReject {
		ln.stats.RejectedClassic++
		ln.hEff = b.cfg.Ctrl.RejectStepSize(ln.hEff, sErr1, tab.ControlOrder())
	} else {
		// Validator rejection: recompute with the same step size so a clean
		// recomputation reproduces the identical SErr_1; the cached first
		// stage is dropped in case it was itself corrupted.
		ln.stats.RejectedValidator++
		ln.haveFNext = false
	}
}

// compact retires finished and failed lanes by swapping them past the live
// range [0, n). The slot order of the surviving lanes may change between
// rounds; nothing depends on it, because every slot's structure-of-arrays
// column is rebuilt from its lane's scalar state each round.
func (b *Integrator) compact() {
	for s := 0; s < b.n; {
		if b.lanes[s].finished() {
			b.n--
			b.lanes[s], b.lanes[b.n] = b.lanes[b.n], b.lanes[s]
		} else {
			s++
		}
	}
}
