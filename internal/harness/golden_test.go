package harness

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ode"
)

// Golden-file snapshots of the paper-style reporting path. The rendered
// tables are the published artifact of this reproduction, so refactors of
// tables.go/table.go must not silently change a single byte. Regenerate
// deliberately with:
//
//	go test ./internal/harness -run Golden -update
//
// The campaign golden is seeded and runs with Workers: 0 (all cores), so a
// multi-core CI run also re-proves that parallel campaigns reproduce the
// serially generated numbers.
var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (regenerate deliberately with -update):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestTableRenderGolden pins the renderer itself: column sizing, padding,
// separators, and the %.1f float formatting of AddRowf.
func TestTableRenderGolden(t *testing.T) {
	tb := &Table{
		Title:   "Render fixture — widths, floats, and ragged rows",
		Headers: []string{"Detector", "FPR", "TPR", "note"},
	}
	tb.AddRowf("classic", 0.0, 99.95, "rounds to one decimal")
	tb.AddRowf("ibdc", 1.25, 100.0, "x")
	tb.AddRow("a-very-wide-detector-name", "0", "1")
	tb.AddRow("short")
	var buf bytes.Buffer
	tb.Render(&buf)
	checkGolden(t, "render.golden", buf.Bytes())
}

// TestTable3Golden pins the numbers of a miniature Table III campaign
// (fixed seed, fixed workload): the end-to-end path from injection through
// rate accounting to the rendered table.
func TestTable3Golden(t *testing.T) {
	o := Options{Problem: fastProblem(), Seed: 20170905, MinInjections: 60, Workers: 0}
	var buf bytes.Buffer
	if _, err := Table3(&buf, o, ode.HeunEuler(), 0.01); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table3.golden", buf.Bytes())
}

// TestToleranceSweepGolden pins a second reporting path (per-cell derived
// quantities like the significant fraction) on a two-point sweep.
func TestToleranceSweepGolden(t *testing.T) {
	o := Options{Problem: fastProblem(), Seed: 7, MinInjections: 60, Workers: 0}
	var buf bytes.Buffer
	if _, err := ToleranceSweep(&buf, o, []float64{1e-3, 1e-5}); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "tolsweep.golden", buf.Bytes())
}

// TestFixedTableGolden pins the related-work fixed-step table end to end:
// the rendered rows and each row's canonical Result, serially and with four
// workers.
func TestFixedTableGolden(t *testing.T) {
	var serial []byte
	for _, workers := range []int{1, 4} {
		var buf bytes.Buffer
		cells, err := FixedTable(&buf, Options{Seed: 20170905, MinInjections: 2000, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cells {
			canon, err := json.Marshal(c.Result.Canonical())
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(canon)
			buf.WriteByte('\n')
		}
		if serial == nil {
			serial = buf.Bytes()
			checkGolden(t, "fixed_table.golden", serial)
		} else if !bytes.Equal(buf.Bytes(), serial) {
			t.Errorf("workers=%d table diverges from serial:\n%s", workers, buf.Bytes())
		}
	}
}
