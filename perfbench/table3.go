package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"time"

	"repro/internal/control"
	"repro/internal/harness"
	"repro/internal/inject"
	"repro/internal/ode"
	"repro/internal/problems"
)

// defaultSeed is the generator seed whose reference counts are committed.
const defaultSeed = 1

// table3Detectors is Table III's detector set, in the paper's order.
var table3Detectors = []harness.DetectorKind{harness.Classic, harness.LBDC, harness.IBDC, harness.Replication}

// table3Params are the inputs of one Table-III pass: Heun-Euler, the
// scaled injector, and the four detectors on one problem.
type table3Params struct {
	Problem string  `json:"problem"`
	N       int     `json:"n"`
	TEnd    float64 `json:"t_end,omitempty"` // 0 keeps the problem's window
	// ReplicatesPerCell sizes each cell by a fixed replicate count (the
	// harness's MaxRuns) rather than an injection target, so the work of a
	// pass does not depend on the seed.
	ReplicatesPerCell int      `json:"replicates_per_cell"`
	Seed              uint64   `json:"campaign_seed"` // of the first cell; cell i uses Seed+i
	Method            string   `json:"method"`
	Injector          string   `json:"injector"`
	Detectors         []string `json:"detectors"`
}

func table3ParamsFor(workload, scale string, seed uint64) table3Params {
	p := table3Params{
		Method:   "heun-euler",
		Injector: "scaled",
		// The campaign root seed is derived from the generator seed; the
		// program only ever sees the derived value.
		Seed: splitmix(seed ^ 0x7ab1e3),
	}
	for _, d := range table3Detectors {
		p.Detectors = append(p.Detectors, string(d))
	}
	switch {
	case workload == "table3-bubble" && scale == "full":
		// Six 10 s windows per cell, a wave of four and a wave of two on
		// two workers: the few long replicates this workload stands for,
		// at five seconds a pass.
		p.Problem, p.N, p.TEnd, p.ReplicatesPerCell = "bubble", 16, 10, 6
	case workload == "table3-bubble":
		p.Problem, p.N, p.TEnd, p.ReplicatesPerCell = "bubble", 8, 2, 2
	case scale == "full":
		p.Problem, p.N, p.ReplicatesPerCell = "oscillator", 0, 360
	default:
		p.Problem, p.N, p.ReplicatesPerCell = "oscillator", 0, 2
	}
	return p
}

// splitmix is the SplitMix64 finalizer, used to derive seeds.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// cellCounts is the deterministic outcome of one Table-III cell: what the
// serial engine must reproduce exactly.
type cellCounts struct {
	Detector   string        `json:"detector"`
	Rates      harness.Rates `json:"rates"`
	Steps      int           `json:"steps"`
	TrialSteps int           `json:"trial_steps"`
	Evals      int64         `json:"evals"`
	MeanOrder  float64       `json:"mean_order"`
}

func countsOf(det harness.DetectorKind, res *harness.Result) cellCounts {
	c := res.Canonical()
	return cellCounts{Detector: string(det), Rates: c.Rates, Steps: c.Steps, TrialSteps: c.TrialSteps, Evals: c.Evals, MeanOrder: c.MeanOrder}
}

// referenceFile holds the committed serial-engine counts of the default
// seed, one entry per campaign workload.
type referenceFile map[string]struct {
	Params table3Params `json:"params"`
	Cells  []cellCounts `json:"cells"`
}

//go:embed testdata/reference.json
var referenceJSON []byte

// referenceFor returns the counts every pass must reproduce: the
// options' reference when set, else the committed counts for the default
// seed at full scale. It returns nil when there are none, and the serial
// oracle runs instead; counts recorded for other parameters are an error,
// so a stale reference cannot pass silently.
func referenceFor(o options, p table3Params) ([]cellCounts, error) {
	ref := o.reference
	if ref == nil {
		if o.seed != defaultSeed || o.scale != "full" {
			return nil, nil
		}
		ref = new(referenceFile)
		if err := json.Unmarshal(referenceJSON, ref); err != nil {
			return nil, fmt.Errorf("reading reference counts: %w", err)
		}
	}
	if e, ok := (*ref)[o.workload]; ok && reflect.DeepEqual(e.Params, p) {
		return e.Cells, nil
	}
	return nil, fmt.Errorf("no reference counts for %s with these parameters: regenerate them with --write-reference", o.workload)
}

// table3 is one campaign workload's live state.
type table3 struct {
	params  table3Params
	problem *problems.Problem
	tab     *ode.Tableau
}

// setup builds the problem, the tableau and every cell's detector: the
// work a campaign does before its first replicate.
func setupTable3(p table3Params) (*table3, error) {
	pb, err := problems.ByName(p.Problem, p.N)
	if err != nil {
		return nil, err
	}
	if p.TEnd > 0 {
		pb.TEnd = p.TEnd
	}
	tab, err := ode.TableauByName(p.Method)
	if err != nil {
		return nil, err
	}
	for _, d := range table3Detectors {
		if _, err := control.New(string(d), control.Spec{Tab: tab, Sys: pb.SysInstance()}); err != nil {
			return nil, err
		}
	}
	return &table3{params: p, problem: pb, tab: tab}, nil
}

// pass is one Table-III pass: every cell, in detector order.
type pass struct {
	wall    float64
	results []*harness.Result
}

// runPass runs the four cells through harness.RunContext. workers 0 is the
// harness default (GOMAXPROCS); 1 is the serial reference engine.
func (w *table3) runPass(ctx context.Context, workers, batch int, metrics bool, tr *tracer, name string) (*pass, error) {
	inj, err := inject.ByName(w.params.Injector)
	if err != nil {
		return nil, err
	}
	parent, end := tr.begin(0, name, "")
	defer end()
	t0 := time.Now()
	ps := &pass{}
	for i, det := range table3Detectors {
		_, endCell := tr.begin(parent, "harness.RunContext/"+string(det), "")
		res, err := harness.RunContext(ctx, harness.Config{
			Problem:  w.problem,
			Tab:      w.tab,
			Injector: inj,
			Detector: det,
			// Each cell draws its own injection streams, so a pass sums
			// four independent samples rather than one sample four times.
			Seed: w.params.Seed + uint64(i),
			// An unreachable injection target leaves MaxRuns as the
			// stopping rule.
			MinInjections: math.MaxInt,
			MaxRuns:       w.params.ReplicatesPerCell,
			Workers:       workers,
			Batch:         batch,
			Metrics:       metrics,
		})
		endCell()
		if err != nil {
			return nil, fmt.Errorf("%s cell: %w", det, err)
		}
		ps.results = append(ps.results, res)
	}
	ps.wall = seconds(t0)
	return ps, nil
}

func walls(ps []*pass) []float64 {
	ws := make([]float64, len(ps))
	for i, p := range ps {
		ws[i] = p.wall
	}
	return ws
}

// mismatches counts the cells of ps whose counts differ from want.
func (ps *pass) mismatches(want []cellCounts) int {
	bad := 0
	for i, det := range table3Detectors {
		if i >= len(want) || countsOf(det, ps.results[i]) != want[i] {
			bad++
		}
	}
	return bad
}

func (ps *pass) injections() (n int) {
	for _, r := range ps.results {
		n += r.Rates.Injections
	}
	return n
}

func (ps *pass) replicates() (n int) {
	for _, r := range ps.results {
		n += r.Rates.Runs
	}
	return n
}

// timeSetup repeats fn in blocks of at least blockDur each until budget
// has passed (and at least three blocks ran) and returns the median over
// blocks of the mean time per call, in seconds. Block means smooth the
// timer's own jitter out of microsecond-scale set-up times; the budget
// includes the collections between blocks.
func timeSetup(budget, blockDur time.Duration, fn func() error) (float64, error) {
	var means []float64
	t0 := time.Now()
	for len(means) < 3 || time.Since(t0) < budget {
		runtime.GC() // each block starts from a collected heap
		n := 0
		s := time.Now()
		for n == 0 || time.Since(s) < blockDur {
			if err := fn(); err != nil {
				return 0, err
			}
			n++
		}
		means = append(means, seconds(s)/float64(n))
	}
	return median(means), nil
}

// runTable3 runs a campaign workload: repeated Table-III passes at the
// default worker count for the measurement time, every cell checked
// against the serial engine's counts.
func runTable3(ctx context.Context, o options, tr *tracer) (*outcome, error) {
	prm := table3ParamsFor(o.workload, o.scale, o.seed)
	want, err := referenceFor(o, prm)
	if err != nil {
		return nil, err
	}

	w, err := setupTable3(prm)
	if err != nil {
		return nil, err
	}

	// Traced runs alternate untraced and traced passes, so the tracing
	// overhead is measured in the same run. Passes run while the next one
	// is expected to end within the measurement time (and at least twice).
	out := &outcome{values: map[string]float64{}, params: prm}
	var plain, traced []*pass
	var memBefore, memAfter runtime.MemStats
	dur := time.Duration(o.seconds * float64(time.Second))
	t0 := time.Now()
	for i := 0; i < 2 || time.Since(t0).Seconds()+median(append(walls(plain), walls(traced)...)) <= dur.Seconds(); i++ {
		if !o.trace || i%2 == 0 {
			ps, err := w.runPass(ctx, 0, 0, false, nil, "")
			if err != nil {
				return nil, err
			}
			plain = append(plain, ps)
			continue
		}
		runtime.ReadMemStats(&memBefore)
		ps, err := w.runPass(ctx, 0, 0, true, tr, "table3.pass")
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&memAfter)
		traced = append(traced, ps)
	}
	peakRSS := peakRSSMB()
	// Set-up is timed after the passes, so its repetitions' garbage does
	// not count in the peak resident set.
	setupS, err := timeSetup(300*time.Millisecond, 10*time.Millisecond, func() error {
		_, err := setupTable3(prm)
		return err
	})
	if err != nil {
		return nil, err
	}
	passes := append(append([]*pass(nil), plain...), traced...)
	for _, ps := range passes {
		cpu, evals := 0.0, int64(0)
		for _, r := range ps.results {
			cpu += r.CPUSeconds
			evals += r.Evals
		}
		fmt.Printf("pass: wall %.3f s, replicate cpu %.3f s, %d RHS evaluations, %d injections, %d replicates\n",
			ps.wall, cpu, evals, ps.injections(), ps.replicates())
	}

	var batched *pass
	if o.trace {
		// One lockstep pass at B=8 prices the batch engine at campaign level.
		if batched, err = w.runPass(ctx, 0, 8, false, tr, "table3.pass.batch8"); err != nil {
			return nil, err
		}
		passes = append(passes, batched)
	}
	if want == nil {
		oracle, err := w.runPass(ctx, 1, 0, false, tr, "table3.pass.serial_oracle")
		if err != nil {
			return nil, err
		}
		for _, det := range table3Detectors {
			want = append(want, countsOf(det, oracle.results[len(want)]))
		}
	}
	for _, ps := range passes {
		out.attempted += len(ps.results)
		out.failed += ps.mismatches(want)
	}

	wall := median(walls(plain))
	first := plain[0]
	if !o.trace {
		v := out.values
		v["injections_per_s"] = float64(first.injections()) / wall
		v["setup_s"] = setupS
		v["peak_rss_mb"] = peakRSS
		v["result_latency_p50_ms"] = 1e3 * wall
		v["result_latency_p90_ms"] = 1e3 * quantile(walls(plain), 0.9)
		v["shards_per_s"] = float64(first.replicates()) / wall
		return out, nil
	}

	c := campaignCounts(traced[len(traced)-1])
	c.allocBytes = float64(memAfter.TotalAlloc - memBefore.TotalAlloc)
	c.gcCycles = float64(memAfter.NumGC - memBefore.NumGC)
	uc, err := replayUnitCosts(w.problem, w.tab, c.lipQ(), c.bdfQ(), o.scale, tr)
	if err != nil {
		return nil, err
	}
	layerMetrics(out.values, c, uc)
	out.values["batch.campaign_speedup"] = wall / batched.wall
	out.values["bench.trace_overhead_pct"] = 100 * (median(walls(traced))/wall - 1)
	for _, name := range serverMetricNames {
		out.values[name] = 0 // no server on a harness workload's path
	}
	printSplit(o.workload, c, out.values)
	return out, nil
}

// campaignCounts gathers the traced pass's deterministic counts per cell.
func campaignCounts(ps *pass) *counts {
	c := &counts{perDet: map[string]*detCounts{}}
	for i, det := range table3Detectors {
		r := ps.results[i]
		m := r.Metrics
		d := &detCounts{
			trialSteps: float64(r.TrialSteps),
			cpuS:       r.CPUSeconds,
			meanOrder:  r.MeanOrder,
		}
		c.perDet[string(det)] = d
		c.cpuS += r.CPUSeconds
		c.workers = r.Workers
		c.replicates += float64(r.Rates.Runs)
		c.steps += float64(r.Steps)
		c.trialSteps += float64(r.TrialSteps)
		c.rejectedClassic += float64(m.Counter(harness.MRejectedClassic).Value())
		c.rejectedValidator += float64(m.Counter(harness.MRejectedValidator).Value())
		c.fpRescues += float64(m.Counter(harness.MFPRescues).Value())
		c.rhsEvals += float64(r.Evals)
		c.corruptTrials += float64(r.Rates.CorruptTrials)
		c.sigTrials += float64(r.Rates.SigTrials)
		c.injections += float64(r.Rates.Injections)
	}
	c.wall = ps.wall
	return c
}

// counts are the deterministic campaign counts the layer split multiplies
// by unit costs.
type counts struct {
	perDet                                      map[string]*detCounts
	cpuS, wall                                  float64
	workers                                     int
	replicates, steps, trialSteps               float64
	rejectedClassic, rejectedValidator          float64
	fpRescues, rhsEvals, corruptTrials          float64
	sigTrials, injections, allocBytes, gcCycles float64
}

type detCounts struct {
	trialSteps, cpuS, meanOrder float64
}

// lipQ and bdfQ are the LIP/BDF estimate orders the replay times: the
// campaign cells' rounded mean double-checking orders.
func (c *counts) lipQ() int { return roundOrder(c.perDet["lbdc"]) }
func (c *counts) bdfQ() int { return roundOrder(c.perDet["ibdc"]) }

func roundOrder(d *detCounts) int {
	if d == nil {
		return 1
	}
	return max(1, int(math.Round(d.meanOrder)))
}

// writeReference regenerates the committed reference counts: every
// campaign workload at full scale and the default seed, on the serial
// engine.
func writeReference(ctx context.Context, path string) error {
	ref := referenceFile{}
	for _, wl := range []string{"table3-bubble", "table3-oscillator"} {
		prm := table3ParamsFor(wl, "full", defaultSeed)
		w, err := setupTable3(prm)
		if err != nil {
			return err
		}
		ps, err := w.runPass(ctx, 1, 0, false, nil, "")
		if err != nil {
			return err
		}
		e := ref[wl]
		e.Params = prm
		for i, det := range table3Detectors {
			e.Cells = append(e.Cells, countsOf(det, ps.results[i]))
		}
		ref[wl] = e
	}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
