// Command sdcbench regenerates every table and figure of the paper's
// evaluation section. Each experiment prints a table in the paper's layout;
// -exp all runs the full suite.
//
// Usage:
//
//	sdcbench -exp table1|table2|table3|table3bs|table4|table5|fig2|fig3|all \
//	         [-inj N] [-seed S] [-problem burgers|bubble] [-out dir]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/control"
	"repro/internal/convergence"
	"repro/internal/euler"
	"repro/internal/grid"
	"repro/internal/harness"
	"repro/internal/ode"
	"repro/internal/pde"
	"repro/internal/problems"
	"repro/internal/scaling"
	"repro/internal/telemetry"
	"repro/internal/weno"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: table1, table2, table3, table3bs, table4, table5, fig2, fig3, fixed, tolsweep, ablations, fieldsweep, verify, table3x, corpus, or all")
		minInj  = flag.Int("inj", 2000, "minimum SDC injections per campaign cell (the paper uses >= 10000)")
		seed    = flag.Uint64("seed", 20170905, "root random seed")
		probSel = flag.String("problem", "burgers", "campaign workload: burgers (1-D WENO5, fast) or bubble (2-D rising bubble, slow)")
		bubbleN = flag.Int("bubble-n", 32, "bubble grid resolution when -problem bubble or for fig2")
		outDir  = flag.String("out", "", "directory for figure data files (default: no files)")
		workers = flag.Int("workers", 0, "campaign workers per cell: 0 = all cores, 1 = serial reference engine (identical numbers either way)")

		traceOut  = flag.String("trace", "", "write the step traces of every table campaign cell to this file (.csv for CSV, else JSONL)")
		traceCap  = flag.Int("trace-cap", 0, "per-cell trace ring capacity (0 = default)")
		metricOut = flag.String("metrics", "", "write the merged campaign metrics of every table cell to this file (.csv for CSV, else JSON)")
	)
	flag.Parse()

	opts := harness.Options{
		Seed: *seed, MinInjections: *minInj, Workers: *workers,
		Trace: *traceOut != "", TraceCap: *traceCap, Metrics: *metricOut != "",
	}
	switch *probSel {
	case "burgers":
		// harness default
	case "bubble":
		opts.Problem = problems.Bubble2D(*bubbleN, "weno5", 30)
	default:
		fatalf("unknown -problem %q", *probSel)
	}

	run := func(name string, fn func() error) {
		fmt.Printf("== %s ==\n", name)
		start := time.Now()
		if err := fn(); err != nil {
			fatalf("%s: %v", name, err)
		}
		fmt.Printf("(%s in %.1fs)\n\n", name, time.Since(start).Seconds())
	}

	var table1Cells []harness.CellResult
	want := func(name string) bool { return *exp == "all" || *exp == name }

	// Campaign observability: cells from every telemetry-enabled experiment
	// merge into one trace (events keep their per-cell detector stamp) and
	// one metrics registry, written at exit.
	tel := newTelemetrySink(*traceOut, *metricOut)

	if want("table1") {
		run("table1", func() error {
			var err error
			table1Cells, err = harness.Table1(os.Stdout, opts)
			tel.collectCells(table1Cells)
			return err
		})
	}
	if want("table2") {
		run("table2", func() error {
			cells, err := harness.Table2(os.Stdout, opts, table1Cells)
			if table1Cells == nil {
				tel.collectCells(cells)
			}
			return err
		})
	}
	if want("table3") {
		run("table3", func() error {
			res, err := harness.Table3(os.Stdout, opts, ode.HeunEuler(), 0.01)
			if err != nil {
				return err
			}
			tel.collectMap(res)
			return printCampaignJSON("table3", res)
		})
	}
	if want("table3bs") {
		run("table3bs", func() error {
			res, err := harness.Table3(os.Stdout, opts, ode.BogackiShampine(), 0)
			tel.collectMap(res)
			return err
		})
	}
	if want("table4") {
		run("table4", func() error {
			_, cells, err := harness.Table4(os.Stdout, opts)
			tel.collectCells(cells)
			return err
		})
	}
	if want("table5") {
		run("table5", func() error { return table5(os.Stdout) })
	}
	if want("fig2") {
		run("fig2", func() error { return fig2(os.Stdout, *bubbleN, *outDir) })
	}
	if want("fig3") {
		run("fig3", func() error { return fig3(os.Stdout, *outDir) })
	}
	if want("fixed") {
		run("fixed", func() error {
			cells, err := harness.FixedTable(os.Stdout, opts)
			tel.collectCells(cells)
			return err
		})
	}
	if want("tolsweep") {
		run("tolsweep", func() error {
			cells, err := harness.ToleranceSweep(os.Stdout, opts, nil)
			tel.collectCells(cells)
			return err
		})
	}
	if want("ablations") {
		run("ablations", func() error {
			cells, err := harness.Ablations(os.Stdout, opts)
			tel.collectCells(cells)
			return err
		})
	}
	if want("corpus") {
		run("corpus", func() error {
			for _, det := range []harness.DetectorKind{harness.Classic, harness.IBDC} {
				_, cells, err := harness.Corpus(os.Stdout, opts, det)
				tel.collectCells(cells)
				if err != nil {
					return err
				}
			}
			return nil
		})
	}
	if want("table3x") {
		run("table3x", func() error {
			cells, err := harness.Table3X(os.Stdout, opts, ode.BogackiShampine())
			tel.collectCells(cells)
			return err
		})
	}
	if want("verify") {
		run("verify", func() error {
			convergence.Report(os.Stdout)
			return nil
		})
	}
	if want("fieldsweep") {
		run("fieldsweep", func() error {
			p := problems.Bubble2D(24, "weno5", 20)
			o := opts
			if o.MinInjections > 2000 {
				o.MinInjections = 2000 // bubble evals are costly
			}
			cells, err := harness.FieldSweep(os.Stdout, o, p, []string{"rho'", "rho*u", "rho*w", "E'"})
			tel.collectCells(cells)
			return err
		})
	}
	if *exp != "all" && !isKnown(*exp) {
		fatalf("unknown experiment %q", *exp)
	}
	if err := tel.flush(); err != nil {
		fatalf("telemetry export: %v", err)
	}
}

// telemetrySink accumulates the traces and metrics of every campaign cell
// sdcbench runs and writes them once at exit.
type telemetrySink struct {
	tracePath, metricsPath string
	trace                  *telemetry.Recorder
	metrics                *telemetry.Metrics
}

func newTelemetrySink(tracePath, metricsPath string) *telemetrySink {
	return &telemetrySink{
		tracePath:   tracePath,
		metricsPath: metricsPath,
		trace:       telemetry.NewRecorder(0),
		metrics:     telemetry.NewMetrics(),
	}
}

func (s *telemetrySink) collect(res *harness.Result) {
	if res == nil {
		return
	}
	if s.tracePath != "" && res.Trace != nil {
		s.trace.Merge(res.Trace)
	}
	if s.metricsPath != "" && res.Metrics != nil {
		s.metrics.Merge(res.Metrics)
	}
}

func (s *telemetrySink) collectCells(cells []harness.CellResult) {
	for _, c := range cells {
		s.collect(c.Result)
	}
}

// collectMap folds a per-detector result map in fixed detector order so the
// merged trace is independent of Go's map iteration order.
func (s *telemetrySink) collectMap(res map[harness.DetectorKind]*harness.Result) {
	for _, det := range []harness.DetectorKind{
		harness.Classic, harness.LBDC, harness.IBDC, harness.Replication, harness.TMR, harness.Richardson,
	} {
		s.collect(res[det])
	}
}

func (s *telemetrySink) flush() error {
	if s.tracePath != "" {
		if err := writeStream(s.tracePath, func(w io.Writer) error {
			if strings.HasSuffix(s.tracePath, ".csv") {
				return s.trace.WriteCSV(w)
			}
			return s.trace.WriteJSONL(w)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d trace events)\n", s.tracePath, s.trace.Len())
	}
	if s.metricsPath != "" {
		if err := writeStream(s.metricsPath, func(w io.Writer) error {
			if strings.HasSuffix(s.metricsPath, ".csv") {
				return s.metrics.WriteCSV(w)
			}
			return s.metrics.WriteJSON(w)
		}); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", s.metricsPath)
	}
	return nil
}

// writeStream streams fn's output into path through a buffered writer.
func writeStream(path string, fn func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := fn(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printCampaignJSON archives an experiment's per-detector campaign
// performance — including the parallel engine's measured wall-clock speedup
// (CPUSeconds / WallSeconds) — as one JSON line for post-processing.
func printCampaignJSON(exp string, res map[harness.DetectorKind]*harness.Result) error {
	type cell struct {
		Detector    string  `json:"detector"`
		FPRPct      float64 `json:"fpr_pct"`
		TPRPct      float64 `json:"tpr_pct"`
		SFNRPct     float64 `json:"sfnr_pct"`
		Injections  int     `json:"injections"`
		Runs        int     `json:"runs"`
		Workers     int     `json:"workers"`
		WallSeconds float64 `json:"wall_seconds"`
		CPUSeconds  float64 `json:"cpu_seconds"`
		Speedup     float64 `json:"speedup"`
	}
	report := struct {
		Experiment string `json:"experiment"`
		Cells      []cell `json:"cells"`
	}{Experiment: exp}
	for _, det := range []harness.DetectorKind{harness.Classic, harness.LBDC, harness.IBDC, harness.Replication} {
		r, ok := res[det]
		if !ok {
			continue
		}
		report.Cells = append(report.Cells, cell{
			Detector:    string(det),
			FPRPct:      r.Rates.FPR(),
			TPRPct:      r.Rates.TPR(),
			SFNRPct:     r.Rates.SFNR(),
			Injections:  r.Rates.Injections,
			Runs:        r.Rates.Runs,
			Workers:     r.Workers,
			WallSeconds: r.WallSeconds,
			CPUSeconds:  r.CPUSeconds,
			Speedup:     r.Speedup,
		})
	}
	data, err := json.Marshal(report)
	if err != nil {
		return err
	}
	fmt.Printf("json: %s\n", data)
	return nil
}

func isKnown(e string) bool {
	for _, k := range []string{"table1", "table2", "table3", "table3bs", "table4", "table5", "fig2", "fig3", "fixed", "tolsweep", "ablations", "fieldsweep", "verify", "table3x", "corpus"} {
		if e == k {
			return true
		}
	}
	return false
}

// table5 reproduces the mean execution time of the step and of the
// double-check at 512 and 4096 simulated cores.
func table5(w *os.File) error {
	t := &harness.Table{
		Title:   "Table V — simulated mean execution time (seconds over the run)",
		Headers: []string{"Component", "512 classic", "512 LBDC", "512 IBDC", "4096 classic", "4096 LBDC", "4096 IBDC"},
	}
	var checks, steps []string
	for _, cores := range []int{512, 4096} {
		for _, det := range []scaling.Detector{scaling.Classic, scaling.LBDC, scaling.IBDC} {
			res, err := scaling.Run(scaling.Config{Det: det, Cores: cores, Steps: 100, FPRate: 0.03})
			if err != nil {
				return err
			}
			if det == scaling.Classic {
				checks = append(checks, "-")
			} else {
				checks = append(checks, fmt.Sprintf("%.1e", res.CheckSeconds))
			}
			steps = append(steps, fmt.Sprintf("%.1e", res.StepSeconds))
		}
	}
	t.AddRow(append([]string{"Double-check"}, checks...)...)
	t.AddRow(append([]string{"Step"}, steps...)...)
	t.Render(w)
	return nil
}

// fig3 reproduces the relative time and memory overheads of LBDC and IBDC
// against the classic controller for 64..4096 cores.
func fig3(w *os.File, outDir string) error {
	t := &harness.Table{
		Title:   "Figure 3 — relative overhead vs classic adaptive controller (%)",
		Headers: []string{"Cores", "LBDC time", "IBDC time", "LBDC memory", "IBDC memory"},
	}
	var lines []string
	lines = append(lines, "cores lbdc_time ibdc_time lbdc_mem ibdc_mem")
	for _, cores := range []int{64, 128, 256, 512, 1024, 2048, 4096} {
		row := []string{fmt.Sprintf("%d", cores)}
		var vals []float64
		for _, det := range []scaling.Detector{scaling.LBDC, scaling.IBDC} {
			res, err := scaling.Run(scaling.Config{Det: det, Cores: cores, Steps: 50, FPRate: 0.03})
			if err != nil {
				return err
			}
			vals = append(vals, res.TimeOverheadPct(), res.MemOverheadPct())
		}
		// Column order: LBDC time, IBDC time, LBDC mem, IBDC mem.
		row = append(row,
			fmt.Sprintf("%.2f", vals[0]), fmt.Sprintf("%.2f", vals[2]),
			fmt.Sprintf("%.1f", vals[1]), fmt.Sprintf("%.1f", vals[3]))
		t.AddRow(row...)
		lines = append(lines, fmt.Sprintf("%d %.3f %.3f %.2f %.2f", cores, vals[0], vals[2], vals[1], vals[3]))
	}
	t.Render(w)
	if outDir != "" {
		if err := writeFile(outDir, "fig3.dat", strings.Join(lines, "\n")+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// fig2 integrates the rising thermal bubble and reports the density
// perturbation field statistics at the paper's snapshot times (writing the
// full fields when -out is given).
func fig2(w *os.File, n int, outDir string) error {
	g := grid.New2D(n, n, 1000, 1000)
	sys := pde.NewEulerSystem(g, euler.DefaultGas(), weno.Weno5{})
	x0 := sys.InitialState(euler.DefaultBubble())
	dt := sys.MaxDt(x0, 0.5)
	in := &ode.Integrator{Tab: ode.BogackiShampine(), Ctrl: control.DefaultController(1e-4, 1e-4), MaxStep: dt}
	in.Init(sys, 0, 200, x0, dt/4)

	t := &harness.Table{
		Title:   fmt.Sprintf("Figure 2 — rising thermal bubble (%dx%d), density perturbation rho'", n, n),
		Headers: []string{"t (s)", "min rho'", "max rho'", "centroid z (m)", "max |w| (m/s)", "steps"},
	}
	snapshot := func(tNow float64) error {
		rho := sys.VarSlice(in.X(), 0)
		mw := sys.VarSlice(in.X(), 2)
		lo, hi := 0.0, 0.0
		var num, den, wmax float64
		for j := 0; j < g.N[1]; j++ {
			for i := 0; i < g.N[0]; i++ {
				idx := g.Index(i, j, 0)
				v := rho[idx]
				if v < lo {
					lo = v
				}
				if v > hi {
					hi = v
				}
				if wv := mw[idx]; wv > wmax || -wv > wmax {
					if wv < 0 {
						wv = -wv
					}
					wmax = wv
				}
				if wgt := -v; wgt > 0 {
					num += wgt * g.Coord(1, j)
					den += wgt
				}
			}
		}
		cz := 0.0
		if den > 0 {
			cz = num / den
		}
		t.AddRow(fmt.Sprintf("%.0f", tNow), fmt.Sprintf("%.5f", lo), fmt.Sprintf("%.5f", hi),
			fmt.Sprintf("%.1f", cz), fmt.Sprintf("%.3f", wmax), fmt.Sprintf("%d", in.Stats.Steps))
		if outDir != "" {
			var sb strings.Builder
			sb.WriteString("# x z rho'\n")
			for j := 0; j < g.N[1]; j++ {
				for i := 0; i < g.N[0]; i++ {
					fmt.Fprintf(&sb, "%g %g %.8e\n", g.Coord(0, i), g.Coord(1, j), rho[g.Index(i, j, 0)])
				}
				sb.WriteString("\n")
			}
			if err := writeFile(outDir, fmt.Sprintf("fig2_t%03.0f.dat", tNow), sb.String()); err != nil {
				return err
			}
		}
		return nil
	}

	if err := snapshot(0); err != nil {
		return err
	}
	for _, tSnap := range []float64{100, 150, 200} {
		for in.T() < tSnap-1e-9 {
			if err := in.Step(); err != nil {
				return fmt.Errorf("bubble integration failed at t=%.1f: %w", in.T(), err)
			}
		}
		if err := snapshot(in.T()); err != nil {
			return err
		}
	}
	t.Render(w)
	return nil
}

func writeFile(dir, name, content string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "sdcbench: "+format+"\n", args...)
	os.Exit(1)
}
