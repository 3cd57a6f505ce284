package main

import (
	"context"
	"io"
	"testing"
)

func readBenchmark(t *testing.T) *benchmarkFile {
	t.Helper()
	b, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func tinyRun(t *testing.T, workload string, trace bool, ref *referenceFile) *result {
	t.Helper()
	res, err := run(context.Background(), options{
		workload:  workload,
		seed:      defaultSeed,
		seconds:   0.5,
		trace:     trace,
		scale:     "tiny",
		workdir:   t.TempDir(),
		bench:     "../BENCHMARK.json",
		reference: ref,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestEveryWorkloadEmitsEveryMetric runs each workload at tiny size, untraced
// and traced, and checks that every metric BENCHMARK.json names is reported
// with its unit, and that every output passed its correctness check.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	b := readBenchmark(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for _, wl := range b.Workloads {
		for _, trace := range []bool{false, true} {
			res := tinyRun(t, wl.Name, trace, nil)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", wl.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl.Name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, want %q", wl.Name, trace, m.Name, got.Unit, m.Unit)
				case !trace && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", wl.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestTamperedReferenceFails checks that the reference comparison catches a
// single changed count: the serial engine's own counts pass, and the same
// counts with one step added fail every pass's cell.
func TestTamperedReferenceFails(t *testing.T) {
	const wl = "table3-oscillator"
	prm := table3ParamsFor(wl, "tiny", defaultSeed)
	w, err := setupTable3(prm)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := w.runPass(context.Background(), 1, 0, false, nil, "")
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceFile{}
	e := ref[wl]
	e.Params = prm
	for i, det := range table3Detectors {
		e.Cells = append(e.Cells, countsOf(det, ps.results[i]))
	}
	ref[wl] = e
	if res := tinyRun(t, wl, false, &ref); !res.Correct || res.Failed != 0 {
		t.Fatalf("untampered reference: correct=%v failed=%d", res.Correct, res.Failed)
	}

	e.Cells = append([]cellCounts(nil), e.Cells...)
	e.Cells[1].Steps++
	ref[wl] = e
	res := tinyRun(t, wl, false, &ref)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("tampered reference passed: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
}
