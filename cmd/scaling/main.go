// Command scaling sweeps the cluster cost model behind Table V and
// Figure 3: per-step and per-double-check execution time, and relative
// time/memory overheads, across core counts.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/harness"
	"repro/internal/scaling"
	"repro/internal/telemetry"
)

func main() {
	var (
		coreList  = flag.String("cores", "64,128,256,512,1024,2048,4096", "core counts to sweep")
		det       = flag.String("detector", "ibdc", "classic, lbdc, ibdc, or replication")
		steps     = flag.Int("steps", 50, "accepted steps to simulate")
		fpRate    = flag.Float64("fp", 0.03, "false-positive recomputation rate charged to the detector")
		stages    = flag.Int("stages", 2, "stage evaluations per step (N_k)")
		traceOut  = flag.String("trace", "", "write one JSONL record per sweep point to this file")
		metricOut = flag.String("metrics", "", "write the sweep as a telemetry metrics document (.csv for CSV, else JSON)")
	)
	flag.Parse()

	var results []scaling.Result
	for _, f := range strings.Split(*coreList, ",") {
		cores, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			fatal(err)
		}
		res, err := scaling.Run(scaling.Config{
			Det:    scaling.Detector(*det),
			Cores:  cores,
			Steps:  *steps,
			FPRate: *fpRate,
			Stages: *stages,
		})
		if err != nil {
			fatal(err)
		}
		results = append(results, res)
	}

	t := &harness.Table{
		Title:   fmt.Sprintf("Simulated cluster sweep — %s, %d steps, N_k=%d", *det, *steps, *stages),
		Headers: []string{"Cores", "Step (s)", "Check (s)", "Time overhead %", "Memory overhead %"},
	}
	for _, res := range results {
		t.AddRow(fmt.Sprintf("%d", res.Cores),
			fmt.Sprintf("%.3e", res.StepSeconds),
			fmt.Sprintf("%.3e", res.CheckSeconds),
			fmt.Sprintf("%.2f", res.TimeOverheadPct()),
			fmt.Sprintf("%.1f", res.MemOverheadPct()))
	}
	t.Render(os.Stdout)

	if *traceOut != "" {
		if err := writeStream(*traceOut, func(w io.Writer) error {
			for _, res := range results {
				_, err := fmt.Fprintf(w,
					`{"detector":%q,"cores":%d,"step_seconds":%g,"check_seconds":%g,"time_overhead_pct":%g,"mem_overhead_pct":%g,"solver_bytes":%d,"detector_bytes":%d}`+"\n",
					*det, res.Cores, res.StepSeconds, res.CheckSeconds,
					res.TimeOverheadPct(), res.MemOverheadPct(), res.SolverBytes, res.DetectorBytes)
				if err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			fatal(err)
		}
	}
	if *metricOut != "" {
		// One gauge per (quantity, core count): the same registry form the
		// campaign metrics use, so downstream tooling reads both.
		m := telemetry.NewMetrics()
		for _, res := range results {
			suffix := "." + strconv.Itoa(res.Cores)
			m.Gauge("step_seconds" + suffix).Set(res.StepSeconds)
			m.Gauge("check_seconds" + suffix).Set(res.CheckSeconds)
			m.Gauge("time_overhead_pct" + suffix).Set(res.TimeOverheadPct())
			m.Gauge("mem_overhead_pct" + suffix).Set(res.MemOverheadPct())
		}
		if err := writeStream(*metricOut, func(w io.Writer) error {
			if strings.HasSuffix(*metricOut, ".csv") {
				return m.WriteCSV(w)
			}
			return m.WriteJSON(w)
		}); err != nil {
			fatal(err)
		}
	}
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scaling:", err)
	os.Exit(1)
}
