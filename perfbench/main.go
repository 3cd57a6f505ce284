// Command perfbench is the repository benchmark. It runs one named workload
// for a fixed time, checks every output against the serial reference
// engine, and prints the workload's metrics by name with their units. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With --trace 0 the metrics are the end-to-end metrics; with --trace 1 a
// separate traced run reports the per-layer metrics and writes its spans to
// a JSON file under --workdir. Run it from the repository root through
// perfbench/run.sh, which builds it from source first:
//
//	bash perfbench/run.sh --workload table3-bubble --seed 1 --seconds 30 --trace 0
//
// perfbench/README.md lists the workloads and defines every metric.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef is one metric as BENCHMARK.json names it.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads: the
// metric names and units it must report. Every run prints every metric of
// its mode, on every workload; a per-layer metric whose layer is not on a
// workload's path reads 0 there.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	b := &benchmarkFile{}
	if err := json.Unmarshal(data, b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options is one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scale    string // "full" (the benchmark) or "tiny" (the smoke test)
	workdir  string // server data and span files go here
	bench    string // path of BENCHMARK.json
	// reference, when non-nil, replaces the committed reference counts
	// (the smoke test tampers with it).
	reference *referenceFile
}

// outcome is what a workload run hands back to main: raw metric values,
// the operation tally, and the environment block's workload parameters.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	params    any
}

var workloads = map[string]func(context.Context, options, *tracer) (*outcome, error){
	"table3-bubble":     runTable3,
	"table3-oscillator": runTable3,
	"sdcd-mixed":        runSdcd,
}

func main() {
	var o options
	var trace int
	var writeRef string
	flag.StringVar(&o.workload, "workload", "", "workload name: table3-bubble, table3-oscillator or sdcd-mixed")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "workload generator seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "measurement time in seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.StringVar(&writeRef, "write-reference", "", "regenerate the reference counts of the default seed into this file and exit")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace takes 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	o.scale, o.workdir, o.bench = "full", ".bench_build", "BENCHMARK.json"

	ctx := context.Background()
	if writeRef != "" {
		if err := writeReference(ctx, writeRef); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	res, err := run(ctx, o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and assembles its result. Human-readable lines
// (environment block, metric table) go to w; the caller prints the JSON
// result line last.
func run(ctx context.Context, o options, w io.Writer) (*result, error) {
	fn, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.scale != "full" && o.scale != "tiny" {
		return nil, fmt.Errorf("unknown scale %q", o.scale)
	}
	bench, err := readBenchmarkFile(o.bench)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	out, err := fn(ctx, o, tr)
	if err != nil {
		return nil, err
	}
	env := environment(o, out.params)
	envJSON, err := json.Marshal(env)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "env %s\n", envJSON)
	if tr != nil {
		path := filepath.Join(o.workdir, fmt.Sprintf("perfbench-spans-%s-%d.json", o.workload, o.seed))
		if err := tr.write(path, env); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "spans written to %s\n", path)
	}

	defs := bench.EndToEnd
	if o.trace {
		defs = bench.PerLayer
	}
	res := &result{
		Attempted: out.attempted,
		Failed:    out.failed,
		Correct:   out.failed == 0 && out.attempted > 0,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s does not report metric %s", o.workload, d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "  %-38s %16.6g %s\n", d.Name, v, d.Unit)
	}
	fmt.Fprintf(w, "  %-38s %16.6g %s (%d of %d operations)\n", "failed_fraction",
		float64(out.failed)/float64(max(out.attempted, 1)), "ratio", out.failed, out.attempted)
	return res, nil
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// seconds returns the time since t0 in seconds.
func seconds(t0 time.Time) float64 { return time.Since(t0).Seconds() }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
