package harness

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"repro/internal/ode"
)

// tinyOpts keeps the table generators fast enough for unit testing.
func tinyOpts() Options {
	p := tableWorkload()
	return Options{Problem: p, Seed: 2, MinInjections: 60}
}

func TestTable1And2Writers(t *testing.T) {
	var buf bytes.Buffer
	cells, err := Table1(&buf, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 9 {
		t.Fatalf("table1 cells = %d, want 9", len(cells))
	}
	out := buf.String()
	for _, want := range []string{"Table I", "multibit", "singlebit", "scaled", "Heun-Euler"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table1 missing %q", want)
		}
	}
	buf.Reset()
	// Table II reuses the cells without re-running campaigns.
	if _, err := Table2(&buf, tinyOpts(), cells); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "HE sig") {
		t.Fatalf("table2 output malformed:\n%s", buf.String())
	}
}

func TestTable3Writer(t *testing.T) {
	var buf bytes.Buffer
	res, err := Table3(&buf, tinyOpts(), ode.HeunEuler(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, det := range []DetectorKind{Classic, LBDC, IBDC, Replication} {
		if res[det] == nil {
			t.Fatalf("missing detector %s", det)
		}
	}
	if !strings.Contains(buf.String(), "Significant FNR") {
		t.Fatal("table3 header missing")
	}
}

func TestTable4Writer(t *testing.T) {
	var buf bytes.Buffer
	oh, _, err := Table4(&buf, tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if oh[Replication].MemoryPct != 100 {
		t.Fatalf("replication memory = %g", oh[Replication].MemoryPct)
	}
	if !strings.Contains(buf.String(), "tmr") {
		t.Fatal("extended baselines missing from table4")
	}
}

func TestToleranceSweepWriter(t *testing.T) {
	var buf bytes.Buffer
	cells, err := ToleranceSweep(&buf, tinyOpts(), []float64{1e-4, 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d", len(cells))
	}
	if !strings.Contains(buf.String(), "1e-05") {
		t.Fatalf("sweep output:\n%s", buf.String())
	}
}

// TestTablesCarryTelemetry: every table generator routes Options' trace
// and metrics switches into each of its cells, so a caller collecting the
// returned cells gets their events and metrics.
func TestTablesCarryTelemetry(t *testing.T) {
	cellResults := func(cells []CellResult, err error) ([]*Result, error) {
		var out []*Result
		for _, c := range cells {
			out = append(out, c.Result)
		}
		return out, err
	}
	for _, tc := range []struct {
		name string
		run  func(o Options) ([]*Result, error)
	}{
		{"Table1", func(o Options) ([]*Result, error) { return cellResults(Table1(io.Discard, o)) }},
		{"Table3", func(o Options) ([]*Result, error) {
			res, err := Table3(io.Discard, o, ode.HeunEuler(), 0)
			var out []*Result
			for _, det := range []DetectorKind{Classic, LBDC, IBDC, Replication} {
				out = append(out, res[det])
			}
			return out, err
		}},
		{"FixedTable", func(o Options) ([]*Result, error) { return cellResults(FixedTable(io.Discard, o)) }},
		{"ToleranceSweep", func(o Options) ([]*Result, error) {
			return cellResults(ToleranceSweep(io.Discard, o, []float64{1e-4}))
		}},
		{"Table4", func(o Options) ([]*Result, error) {
			_, cells, err := Table4(io.Discard, o)
			return cellResults(cells, err)
		}},
		{"Ablations", func(o Options) ([]*Result, error) { return cellResults(Ablations(io.Discard, o)) }},
		{"FieldSweep", func(o Options) ([]*Result, error) {
			return cellResults(FieldSweep(io.Discard, o, tableWorkload(), []string{"a", "b"}))
		}},
		{"Table3X", func(o Options) ([]*Result, error) { return cellResults(Table3X(io.Discard, o, nil)) }},
		{"Corpus", func(o Options) ([]*Result, error) {
			_, cells, err := Corpus(io.Discard, o, IBDC)
			return cellResults(cells, err)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := tinyOpts()
			o.Trace, o.Metrics = true, true
			results, err := tc.run(o)
			if err != nil {
				t.Fatal(err)
			}
			if len(results) == 0 {
				t.Fatal("no cells")
			}
			for i, r := range results {
				if r.Trace == nil || r.Trace.Len() == 0 || r.Metrics == nil {
					t.Fatalf("cell %d carries no trace or metrics (trace %v, metrics %v)", i, r.Trace != nil, r.Metrics != nil)
				}
			}
		})
	}
}

func TestAblationsWriter(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Ablations(&buf, tinyOpts()); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Algorithm 1", "pinned q=2", "no reuse", "max norm"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("ablations missing %q", want)
		}
	}
}

func TestCorpusWriter(t *testing.T) {
	var buf bytes.Buffer
	agg, _, err := Corpus(&buf, Options{Seed: 2, MinInjections: 60}, Classic)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Injections == 0 {
		t.Fatal("no injections aggregated")
	}
	if !strings.Contains(buf.String(), "ALL") {
		t.Fatal("aggregate row missing")
	}
}

func TestTable3XWriter(t *testing.T) {
	var buf bytes.Buffer
	if _, err := Table3X(&buf, tinyOpts(), nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "bogacki-shampine") {
		t.Fatal("default tableau missing")
	}
}

func TestFieldSweepValidation(t *testing.T) {
	p := tableWorkload() // dim 64, not divisible by 3
	var buf bytes.Buffer
	if _, err := FieldSweep(&buf, tinyOpts(), p, []string{"a", "b", "c"}); err == nil {
		t.Fatal("expected divisibility error")
	}
}
