// Command sdcperf measures the steady-state per-step cost of the protected
// adaptive integrator — the paper's detector matrix of embedded pairs
// (Heun-Euler, Bogacki-Shampine, Dormand-Prince) with the classic controller
// alone and with LBDC/IBDC pinned at orders 1..3 — and gates performance
// regressions against a committed baseline report.
//
// Usage:
//
//	sdcperf [-benchtime 100ms] [-out BENCH_0.json]
//	    measure the matrix and (optionally) write the JSON report
//	sdcperf -baseline BENCH_0.json [-allocs-only] [-threshold 0.10]
//	    measure, then gate the fresh numbers against the baseline file
//	sdcperf -compare OLD.json NEW.json [-threshold 0.10]
//	    gate two existing reports without measuring
//
// Two gates apply. The allocation gate (allocs/step and B/step must not
// exceed the baseline) is machine-independent and always on: the committed
// BENCH_0.json pins every cell at zero, so any new steady-state allocation
// fails CI on any hardware. The time gate (ns/step must not regress by more
// than -threshold, default 10%) is only meaningful between reports produced
// on the same machine; CI builds the baseline from the main branch on the
// same runner before comparing. -allocs-only disables the time gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/control"
	_ "repro/internal/core" // registers the lbdc/ibdc detector factories
	"repro/internal/la"
	"repro/internal/ode"
)

// Entry is one cell of the benchmark matrix.
type Entry struct {
	Method        string  `json:"method"`
	Detector      string  `json:"detector"` // "classic", "lip", or "bdf"
	Q             int     `json:"q"`        // pinned order; 0 for classic
	NsPerStep     float64 `json:"ns_per_step"`
	AllocsPerStep int64   `json:"allocs_per_step"`
	BytesPerStep  int64   `json:"bytes_per_step"`
}

func (e *Entry) key() string {
	return fmt.Sprintf("%s/%s/q=%d", e.Method, e.Detector, e.Q)
}

// Report is the sdcperf output schema (BENCH_<n>.json).
type Report struct {
	GoVersion string  `json:"go_version"`
	GOOS      string  `json:"goos"`
	GOARCH    string  `json:"goarch"`
	Entries   []Entry `json:"entries"`
}

// oscillator is the benchmark workload: the harmonic oscillator as a
// first-order system (x1' = x2, x2' = -x1), a
// smooth two-dimensional problem whose per-step cost is dominated by the
// solver and detector machinery rather than the right-hand side.
var oscillator = control.Func{N: 2, F: func(t float64, x, dst la.Vec) {
	dst[0] = x[1]
	dst[1] = -x[0]
}}

// benchDetectorNames maps the report's historical detector labels (stable
// keys in BENCH_0.json) to registry names.
var benchDetectorNames = map[string]string{"lip": "lbdc", "bdf": "ibdc"}

func newDetector(kind string, q int) control.Validator {
	regName, ok := benchDetectorNames[kind]
	if !ok {
		return nil
	}
	// FixedOrder is 1-based in the registry spec; SetOrder takes q directly.
	det, err := control.New(regName, control.Spec{NoAdapt: true, FixedOrder: q + 1})
	if err != nil {
		panic(err)
	}
	return det.Validator
}

// measure times steady-state steps of one matrix cell: a fresh integrator is
// warmed for 200 steps (growing every workspace) before the timed loop.
func measure(method string, tab *control.Tableau, detector string, q int) Entry {
	r := testing.Benchmark(func(b *testing.B) {
		var v control.Validator
		if d := newDetector(detector, q); d != nil {
			v = d
		}
		in := &ode.Integrator{Tab: tab, Ctrl: control.DefaultController(1e-6, 1e-6), Validator: v, MinStep: 1e-12}
		in.Init(oscillator, 0, 1e15, la.Vec{1, 0}, 0.001)
		for i := 0; i < 200; i++ {
			if err := in.Step(); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := in.Step(); err != nil {
				b.Fatal(err)
			}
		}
	})
	return Entry{
		Method: method, Detector: detector, Q: q,
		NsPerStep:     float64(r.NsPerOp()),
		AllocsPerStep: r.AllocsPerOp(),
		BytesPerStep:  r.AllocedBytesPerOp(),
	}
}

var matrixMethods = []struct {
	name string
	tab  *control.Tableau
}{
	{"heun-euler", ode.HeunEuler()},
	{"bogacki-shampine", ode.BogackiShampine()},
	{"dormand-prince", ode.DormandPrince()},
}

func runMatrix() Report {
	rep := Report{GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	for _, m := range matrixMethods {
		for _, c := range matrixCells {
			rep.Entries = append(rep.Entries, measure(m.name, m.tab, c.det, c.q))
		}
	}
	return rep
}

// matrixCells enumerates the 7 detector columns of the matrix.
var matrixCells = []struct {
	det string
	q   int
}{
	{"classic", 0},
	{"lip", 1}, {"lip", 2}, {"lip", 3},
	{"bdf", 1}, {"bdf", 2}, {"bdf", 3},
}

func readReport(path string) (Report, error) {
	var rep Report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

func writeReport(path string, rep Report) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// gate compares cur against base and returns the violations. The allocation
// gate always applies; the time gate applies when threshold > 0.
func gate(base, cur Report, threshold float64) []string {
	baseline := make(map[string]Entry, len(base.Entries))
	for _, e := range base.Entries {
		baseline[e.key()] = e
	}
	var violations []string
	seen := make(map[string]bool, len(cur.Entries))
	for _, e := range cur.Entries {
		seen[e.key()] = true
		b, ok := baseline[e.key()]
		if !ok {
			continue // new cell: no baseline to regress against
		}
		if e.AllocsPerStep > b.AllocsPerStep {
			violations = append(violations, fmt.Sprintf(
				"%s: %d allocs/step, baseline %d", e.key(), e.AllocsPerStep, b.AllocsPerStep))
		}
		if e.BytesPerStep > b.BytesPerStep {
			violations = append(violations, fmt.Sprintf(
				"%s: %d B/step, baseline %d", e.key(), e.BytesPerStep, b.BytesPerStep))
		}
		if threshold > 0 && e.NsPerStep > b.NsPerStep*(1+threshold) {
			violations = append(violations, fmt.Sprintf(
				"%s: %.1f ns/step, baseline %.1f (+%.1f%% > %.0f%% threshold)",
				e.key(), e.NsPerStep, b.NsPerStep,
				100*(e.NsPerStep/b.NsPerStep-1), 100*threshold))
		}
	}
	for k := range baseline {
		if !seen[k] {
			violations = append(violations, fmt.Sprintf("%s: present in baseline, missing from current run", k))
		}
	}
	return violations
}

func printTable(rep Report) {
	fmt.Printf("%-34s %12s %12s %10s\n", "cell", "ns/step", "allocs/step", "B/step")
	for _, e := range rep.Entries {
		fmt.Printf("%-34s %12.1f %12d %10d\n", e.key(), e.NsPerStep, e.AllocsPerStep, e.BytesPerStep)
	}
}

func fail(violations []string) {
	fmt.Fprintf(os.Stderr, "sdcperf: %d regression(s):\n", len(violations))
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "  %s\n", v)
	}
	os.Exit(1)
}

func main() {
	testing.Init() // register test.* flags so -benchtime reaches testing.Benchmark
	var (
		out        = flag.String("out", "", "write the JSON report to this file")
		baseline   = flag.String("baseline", "", "gate the fresh run against this report file")
		compare    = flag.Bool("compare", false, "compare two report files (args: OLD NEW) instead of measuring")
		threshold  = flag.Float64("threshold", 0.10, "maximum tolerated ns/step regression (fraction)")
		allocsOnly = flag.Bool("allocs-only", false, "apply only the machine-independent allocation gate")
		benchtime  = flag.String("benchtime", "100ms", "measurement time per matrix cell (testing -benchtime syntax)")
	)
	flag.Parse()
	nsThreshold := *threshold
	if *allocsOnly {
		nsThreshold = 0
	}

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "sdcperf: -compare needs exactly two report files: OLD NEW")
			os.Exit(2)
		}
		old, err := readReport(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdcperf:", err)
			os.Exit(2)
		}
		cur, err := readReport(flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdcperf:", err)
			os.Exit(2)
		}
		if v := gate(old, cur, nsThreshold); len(v) > 0 {
			fail(v)
		}
		fmt.Printf("sdcperf: %s within gates of %s\n", flag.Arg(1), flag.Arg(0))
		return
	}

	if err := flag.Set("test.benchtime", *benchtime); err != nil {
		fmt.Fprintln(os.Stderr, "sdcperf: bad -benchtime:", err)
		os.Exit(2)
	}
	rep := runMatrix()
	printTable(rep)
	if *out != "" {
		if err := writeReport(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "sdcperf:", err)
			os.Exit(2)
		}
	}
	if *baseline != "" {
		base, err := readReport(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdcperf:", err)
			os.Exit(2)
		}
		if v := gate(base, rep, nsThreshold); len(v) > 0 {
			fail(v)
		}
		fmt.Printf("sdcperf: within gates of %s\n", *baseline)
	}
}
