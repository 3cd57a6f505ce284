package batch

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/control"
	// Pull in the lbdc/ibdc/replication/tmr/richardson detector factories.
	_ "repro/internal/core"
	"repro/internal/inject"
	"repro/internal/la"
	"repro/internal/ode"
	"repro/internal/problems"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// The oracle-differential suite: every observable a lane of the driver
// produces — trajectory, telemetry event stream, counters, terminal error —
// must be byte-identical to a serial ode.Integrator run of the same
// replicate. The serial engine is the oracle; any single-bit disagreement
// fails the lane.

// laneResult is everything one replicate's integration produces, with floats
// captured as raw bits so the comparison is bitwise, not tolerance-based.
// evals counts every evaluation of the system, the redundancy detectors'
// included.
type laneResult struct {
	err    error
	stats  ode.Stats
	evals  int64
	tBits  uint64
	xBits  []uint64
	events []telemetry.StepEvent
}

func bitsOf(v la.Vec) []uint64 {
	out := make([]uint64, len(v))
	for i, f := range v {
		out[i] = math.Float64bits(f)
	}
	return out
}

// drain rounds until every lane has retired.
func drain(bi *Integrator) {
	for bi.Live() > 0 {
		bi.Round()
	}
}

// laneRNG holds one replicate's injection substreams, drawn from a shared
// root in replicate order (the campaign harness's nextJob discipline).
type laneRNG struct{ plan, state *xrand.RNG }

func drawRNGs(seed uint64, n int, stateProb float64) []laneRNG {
	root := xrand.New(seed)
	out := make([]laneRNG, n)
	for i := range out {
		out[i].plan = root.Split(uint64(i))
		if stateProb > 0 {
			out[i].state = root.Split(uint64(i) ^ 0x517a7e)
		}
	}
	return out
}

// testProblem is the short oscillator cell the differential cases integrate.
func testProblem() *problems.Problem {
	p := problems.Oscillator()
	p.TEnd = 3
	p.TolA, p.TolR = 1e-4, 1e-4
	return p
}

// wireCase is one replicate's shared wiring inputs.
type wireCase struct {
	tab       *control.Tableau
	det       string
	p         *problems.Problem
	rng       laneRNG
	prob      float64 // stage-injection probability
	stateProb float64
	tEnd      float64 // overrides p.TEnd when > 0
}

func (wc *wireCase) tEndOr() float64 {
	if wc.tEnd > 0 {
		return wc.tEnd
	}
	return wc.p.TEnd
}

// wiring is the per-replicate machinery a serial integrator and a lane
// share. The driver's LaneConfig carries the system and validator; the
// injection hooks and the recorder go onto the lane's own integrator.
type wiring struct {
	sys       *control.CountingSystem
	validator control.Validator
	hook      control.StageHook
	stateHook func(float64, la.Vec) int
	rec       *telemetry.Recorder
}

// buildWiring constructs the per-replicate machinery (injection plans,
// detector instance) identically for the serial and the driven runs.
func buildWiring(tb testing.TB, wc wireCase) wiring {
	tb.Helper()
	w := wiring{sys: &control.CountingSystem{Sys: wc.p.SysInstance()}, rec: telemetry.NewRecorder(1 << 16)}
	plan := inject.NewPlan(wc.rng.plan, inject.Scaled{})
	plan.Prob = wc.prob
	w.hook = plan.Hook
	det, err := control.New(wc.det, control.Spec{Tab: wc.tab, Sys: w.sys})
	if err != nil {
		tb.Fatalf("detector %q: %v", wc.det, err)
	}
	w.validator = det.Validator
	if wc.stateProb > 0 {
		sp := inject.NewPlan(wc.rng.state, inject.Scaled{})
		sp.Prob = wc.stateProb
		w.stateHook = sp.StateHook
	}
	return w
}

// addLane starts wc as a lane of bi and wires its hooks and recorder.
func (w wiring) addLane(bi *Integrator, wc wireCase) *Lane {
	ln := bi.AddLane(LaneConfig{
		Sys: w.sys, Validator: w.validator,
		T0: wc.p.T0, TEnd: wc.tEndOr(), X0: wc.p.X0, H0: wc.p.H0,
	})
	ln.in.Hook, ln.in.StateHook, ln.in.Tracer = w.hook, w.stateHook, w.rec
	return ln
}

// result reads the observables of ln, a retired lane wired by w.
func (w wiring) result(ln *Lane) laneResult {
	return laneResult{err: ln.err, stats: ln.Stats(), evals: w.sys.Evals,
		tBits: math.Float64bits(ln.in.T()), xBits: bitsOf(ln.in.X()), events: w.rec.Events()}
}

// newBatch returns a driver configured like the serial oracle.
func newBatch(p *problems.Problem, tab *control.Tableau, width int) *Integrator {
	return New(Config{
		Tab:      tab,
		Ctrl:     control.DefaultController(p.TolA, p.TolR),
		MaxSteps: 1 << 18,
		MaxStep:  p.MaxStep,
	}, width, len(p.X0))
}

// runSerialLane is the oracle: one replicate through ode.Integrator.
func runSerialLane(tb testing.TB, wc wireCase) laneResult {
	tb.Helper()
	w := buildWiring(tb, wc)
	in := &ode.Integrator{
		Tab:       wc.tab,
		Ctrl:      control.DefaultController(wc.p.TolA, wc.p.TolR),
		Validator: w.validator,
		Hook:      w.hook,
		StateHook: w.stateHook,
		Tracer:    w.rec,
		MaxSteps:  1 << 18,
		MaxStep:   wc.p.MaxStep,
	}
	in.Init(w.sys, wc.p.T0, wc.tEndOr(), wc.p.X0, wc.p.H0)
	_, runErr := in.Run()
	return laneResult{
		err: runErr, stats: in.Stats, evals: w.sys.Evals,
		tBits: math.Float64bits(in.T()), xBits: bitsOf(in.X()),
		events: w.rec.Events(),
	}
}

// runBatchLanes runs the given replicates as lanes of one driver of the
// given width (len(cases) may be smaller: a partially filled group).
func runBatchLanes(tb testing.TB, cases []wireCase, width int) []laneResult {
	tb.Helper()
	return runLanes(tb, newBatch(cases[0].p, cases[0].tab, width), cases)
}

// runLanes adds the replicates to bi as lanes and rounds until all retire.
func runLanes(tb testing.TB, bi *Integrator, cases []wireCase) []laneResult {
	tb.Helper()
	lanes := make([]*Lane, len(cases))
	wires := make([]wiring, len(cases))
	for i, wc := range cases {
		wires[i] = buildWiring(tb, wc)
		lanes[i] = wires[i].addLane(bi, wc)
	}
	drain(bi)
	out := make([]laneResult, len(cases))
	for i, ln := range lanes {
		out[i] = wires[i].result(ln)
	}
	return out
}

func errEq(a, b error) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	return a == nil || a.Error() == b.Error()
}

// compareLane fails the test on the first observable disagreement between
// the serial oracle and the lane.
func compareLane(t *testing.T, lane int, want, got laneResult) {
	t.Helper()
	if !errEq(want.err, got.err) {
		t.Fatalf("lane %d: err = %v, serial oracle %v", lane, got.err, want.err)
	}
	if want.stats != got.stats || want.evals != got.evals {
		t.Fatalf("lane %d: stats = %+v after %d evaluations, serial oracle %+v after %d",
			lane, got.stats, got.evals, want.stats, want.evals)
	}
	if want.tBits != got.tBits {
		t.Fatalf("lane %d: final t bits = %x, serial oracle %x", lane, got.tBits, want.tBits)
	}
	if !reflect.DeepEqual(want.xBits, got.xBits) {
		t.Fatalf("lane %d: final x bits = %v, serial oracle %v", lane, got.xBits, want.xBits)
	}
	if len(want.events) != len(got.events) {
		t.Fatalf("lane %d: %d trial events, serial oracle %d", lane, len(got.events), len(want.events))
	}
	for k := range want.events {
		if !reflect.DeepEqual(want.events[k], got.events[k]) {
			t.Fatalf("lane %d: event %d = %+v, serial oracle %+v", lane, k, got.events[k], want.events[k])
		}
	}
}

// runDifferential builds len==width replicates, runs them serially and as
// lanes, and compares every lane.
func runDifferential(t *testing.T, tab *control.Tableau, det string, width int, seed uint64, prob, stateProb float64) {
	t.Helper()
	p := testProblem()
	// Two independent RNG pools over the same seed: each run consumes its
	// own substreams, but both draw identically in replicate order.
	serialRNGs := drawRNGs(seed, width, stateProb)
	batchRNGs := drawRNGs(seed, width, stateProb)
	cases := make([]wireCase, width)
	for i := range cases {
		cases[i] = wireCase{tab: tab, det: det, p: p, rng: batchRNGs[i], prob: prob, stateProb: stateProb}
	}
	got := runBatchLanes(t, cases, width)
	for i := range cases {
		wc := cases[i]
		wc.rng = serialRNGs[i]
		compareLane(t, i, runSerialLane(t, wc), got[i])
	}
}

// TestBatchMatchesSerial is the main oracle-differential matrix: every
// registered detector × B ∈ {1, 2, 3, 4, 8, 16}, under stage injection,
// bitwise.
func TestBatchMatchesSerial(t *testing.T) {
	detectors := []string{"classic", "lbdc", "ibdc", "replication", "tmr", "richardson"}
	widths := []int{1, 2, 3, 4, 8, 16}
	for _, det := range detectors {
		for _, w := range widths {
			t.Run(fmt.Sprintf("%s/B=%d", det, w), func(t *testing.T) {
				runDifferential(t, ode.HeunEuler(), det, w, 0xbadc0de, 0.05, 0)
			})
		}
	}
}

// TestBatchMatchesSerialTableaux exercises the other pairs — including the
// FSAL pairs, whose reused first stage carries across a lane's steps.
func TestBatchMatchesSerialTableaux(t *testing.T) {
	tabs := map[string]*control.Tableau{
		"bs23":  ode.BogackiShampine(),
		"dp54":  ode.DormandPrince(),
		"ck45":  ode.CashKarp(),
		"rkf45": ode.Fehlberg(),
	}
	for name, tab := range tabs {
		for _, det := range []string{"classic", "lbdc"} {
			t.Run(fmt.Sprintf("%s/%s", name, det), func(t *testing.T) {
				runDifferential(t, tab, det, 4, 0x5eed, 0.05, 0)
			})
		}
	}
}

// TestBatchMatchesSerialStateHook covers the §V-D transient state
// corruption path (per-lane state RNG substreams).
func TestBatchMatchesSerialStateHook(t *testing.T) {
	runDifferential(t, ode.HeunEuler(), "lbdc", 8, 0xfeed, 0.05, 0.1)
}

// TestBatchPartialFill runs fewer lanes than the width: the unused
// capacity must not perturb the live lanes.
func TestBatchPartialFill(t *testing.T) {
	p := testProblem()
	tab := ode.HeunEuler()
	const width, nLanes = 8, 3
	serialRNGs := drawRNGs(7, nLanes, 0)
	batchRNGs := drawRNGs(7, nLanes, 0)
	cases := make([]wireCase, nLanes)
	for i := range cases {
		cases[i] = wireCase{tab: tab, det: "ibdc", p: p, rng: batchRNGs[i], prob: 0.05}
	}
	got := runBatchLanes(t, cases, width)
	for i := range cases {
		wc := cases[i]
		wc.rng = serialRNGs[i]
		compareLane(t, i, runSerialLane(t, wc), got[i])
	}
}

// TestBatchDivergentSpans gives every lane a different TEnd, so lanes retire
// at different rounds while the rest keep stepping; each lane must still
// match its own serial oracle exactly.
func TestBatchDivergentSpans(t *testing.T) {
	p := testProblem()
	tab := ode.HeunEuler()
	const width = 6
	serialRNGs := drawRNGs(99, width, 0)
	batchRNGs := drawRNGs(99, width, 0)
	cases := make([]wireCase, width)
	for i := range cases {
		cases[i] = wireCase{
			tab: tab, det: "lbdc", p: p, rng: batchRNGs[i], prob: 0.05,
			tEnd: 0.5 + 0.5*float64(i),
		}
	}
	got := runBatchLanes(t, cases, width)
	for i := range cases {
		wc := cases[i]
		wc.rng = serialRNGs[i]
		compareLane(t, i, runSerialLane(t, wc), got[i])
	}
}

// TestBatchReuse refills a drained driver with a second group: the lanes
// the first group retired must leave nothing behind that changes the
// second.
func TestBatchReuse(t *testing.T) {
	p := testProblem()
	tab := ode.HeunEuler()
	const width = 4
	mk := func() []wireCase {
		rngs := drawRNGs(0xabcd, width, 0)
		cases := make([]wireCase, width)
		for i := range cases {
			cases[i] = wireCase{tab: tab, det: "replication", p: p, rng: rngs[i], prob: 0.05}
		}
		return cases
	}
	bi := newBatch(p, tab, width)
	first := runLanes(t, bi, mk())
	second := runLanes(t, bi, mk())
	for i := range first {
		compareLane(t, i, first[i], second[i])
	}
	for i := range first {
		wc := mk()[i]
		compareLane(t, i, runSerialLane(t, wc), first[i])
	}
}
