// Command sdcinject runs one fault-injection campaign cell with full
// control over the workload, method, injector, detector, and injection
// surfaces, and prints the detection-performance rates. It is the
// exploratory companion to cmd/sdcbench's fixed paper tables.
//
// Examples:
//
//	sdcinject -problem burgers -method heun-euler -injector scaled -detector ibdc
//	sdcinject -problem lorenz -detector replication -inj 5000
//	sdcinject -problem bubble -method bogacki-shampine -state-prob 0.01
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/control"
	"repro/internal/harness"
	"repro/internal/inject"
	"repro/internal/ode"
	"repro/internal/problems"
)

func main() {
	var (
		probName  = flag.String("problem", "burgers", "workload: "+strings.Join(problems.Names(), ", "))
		n         = flag.Int("n", 128, "grid resolution for PDE workloads")
		method    = flag.String("method", "heun-euler", "embedded pair (heun-euler, bogacki-shampine, dormand-prince, fehlberg, cash-karp)")
		injName   = flag.String("injector", "scaled", "singlebit, multibit, or scaled")
		detName   = flag.String("detector", "classic", "detector registry name: "+strings.Join(control.Names(), ", "))
		minInj    = flag.Int("inj", 2000, "minimum SDC injections")
		injProb   = flag.Float64("prob", 0.01, "injection probability per stage evaluation")
		stateProb = flag.Float64("state-prob", 0, "additional per-step state-corruption probability (§V-D)")
		seed      = flag.Uint64("seed", 1, "root seed")
		tolA      = flag.Float64("atol", 0, "override absolute tolerance (0 = problem default)")
		tolR      = flag.Float64("rtol", 0, "override relative tolerance (0 = problem default)")
		noAdapt   = flag.Bool("no-adapt", false, "disable Algorithm 1's order adaptation")
		fixedQ    = flag.Int("order", 0, "pin the double-checking order (0 = adaptive)")
		maxNorm   = flag.Bool("max-norm", false, "use the q=infinity scaled error")
		overhead  = flag.Bool("overhead", false, "also measure memory/compute overheads vs clean classic run")
		jsonOut   = flag.Bool("json", false, "emit the result as JSON instead of text")
		replicas  = flag.Int("replicas", 0, "run k seed-varied replicas and report mean +- std of the rates")
		workers   = flag.Int("workers", 0, "campaign workers: 0 = all cores, 1 = serial reference engine (identical numbers either way)")
		traceOut  = flag.String("trace", "", "write the per-trial step trace to this file (.csv for CSV, else JSONL)")
		traceCap  = flag.Int("trace-cap", 0, "keep only the most recent N trace events (0 = default ring capacity)")
		metricOut = flag.String("metrics", "", "write the campaign metrics registry to this file (.csv for CSV, else JSON)")
	)
	flag.Parse()

	p, err := problems.ByName(*probName, *n)
	if err != nil {
		fatal(err)
	}
	if *tolA > 0 {
		p.TolA = *tolA
	}
	if *tolR > 0 {
		p.TolR = *tolR
	}
	tab, err := ode.TableauByName(*method)
	if err != nil {
		fatal(err)
	}
	inj, err := inject.ByName(*injName)
	if err != nil {
		fatal(err)
	}

	cfg := harness.Config{
		Problem:       p,
		Tab:           tab,
		Injector:      inj,
		InjectProb:    *injProb,
		Detector:      harness.DetectorKind(*detName),
		Seed:          *seed,
		MinInjections: *minInj,
		NoAdapt:       *noAdapt,
		MaxNorm:       *maxNorm,
		StateProb:     *stateProb,
		Workers:       *workers,
		Trace:         *traceOut != "",
		TraceCap:      *traceCap,
		Metrics:       *metricOut != "",
	}
	if *fixedQ > 0 {
		cfg.FixedOrder = *fixedQ + 1
		cfg.NoAdapt = true
	}

	if !*jsonOut {
		fmt.Printf("%s | %s | %s injections (p=%.3g/eval", p.Name, tab.Name, inj.Name(), *injProb)
		if *stateProb > 0 {
			fmt.Printf(", state p=%.3g/step", *stateProb)
		}
		fmt.Printf(") | detector=%s | tol=(%g, %g)\n\n", *detName, p.TolA, p.TolR)
	}

	if *replicas > 1 {
		rep, err := harness.RunReplicated(cfg, *replicas)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("across %d seeds:\n", *replicas)
		fmt.Printf("FPR:  %6.2f +- %.2f %%\n", rep.FPRMean, rep.FPRStd)
		fmt.Printf("TPR:  %6.2f +- %.2f %%\n", rep.TPRMean, rep.TPRStd)
		fmt.Printf("SFNR: %6.2f +- %.2f %%\n", rep.SFNRMean, rep.SFNRStd)
		return
	}
	if *overhead {
		oh, res, err := harness.MeasureOverheads(cfg)
		if err != nil {
			fatal(err)
		}
		exportTelemetry(res, *traceOut, *metricOut)
		printResult(res)
		fmt.Printf("\noverheads vs clean classic baseline: %s\n", oh)
		return
	}
	res, err := harness.Run(cfg)
	if err != nil {
		fatal(err)
	}
	exportTelemetry(res, *traceOut, *metricOut)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(harness.NewReport(cfg, res)); err != nil {
			fatal(err)
		}
		return
	}
	printResult(res)
}

func printResult(res *harness.Result) {
	r := res.Rates
	fmt.Printf("trials:        %d clean + %d corrupted (%d SDCs, %d runs, %d diverged)\n",
		r.CleanTrials, r.CorruptTrials, r.Injections, r.Runs, r.Diverged)
	fmt.Printf("FPR:           %s\n", r.FPRInterval())
	fmt.Printf("TPR:           %s   (FNR %.2f %%)\n", r.TPRInterval(), r.FNR())
	fmt.Printf("significant:   %d trials, SFNR %s\n", r.SigTrials, r.SFNRInterval())
	if res.MeanOrder > 0 {
		fmt.Printf("mean order:    %.2f\n", res.MeanOrder)
	}
	fmt.Printf("work:          %d steps, %d evals, %.2f s wall", res.Steps, res.Evals, res.WallSeconds)
	if res.Workers > 1 {
		fmt.Printf(" (%d workers, %.1fx speedup)", res.Workers, res.Speedup)
	}
	fmt.Println()
}

// exportTelemetry dumps the campaign's trace and metrics registry, if the
// campaign collected them. ".csv" paths get CSV; everything else gets the
// line-oriented JSON form (JSONL trace events, one JSON metrics document).
func exportTelemetry(res *harness.Result, tracePath, metricsPath string) {
	if tracePath != "" && res.Trace != nil {
		if err := writeFileWith(tracePath, func(w io.Writer) error {
			if strings.HasSuffix(tracePath, ".csv") {
				return res.Trace.WriteCSV(w)
			}
			return res.Trace.WriteJSONL(w)
		}); err != nil {
			fatal(err)
		}
		if d := res.Trace.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "sdcinject: trace ring dropped %d oldest events (raise -trace-cap to keep more)\n", d)
		}
	}
	if metricsPath != "" && res.Metrics != nil {
		if err := writeFileWith(metricsPath, func(w io.Writer) error {
			if strings.HasSuffix(metricsPath, ".csv") {
				return res.Metrics.WriteCSV(w)
			}
			return res.Metrics.WriteJSON(w)
		}); err != nil {
			fatal(err)
		}
	}
}

// writeFileWith streams fn's output into path through a buffered writer.
func writeFileWith(path string, fn func(io.Writer) error) error {
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sdcinject:", err)
	os.Exit(1)
}
