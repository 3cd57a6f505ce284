package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/inject"
	"repro/internal/ode"
	"repro/internal/problems"
)

// TestTable3PDECountsGolden pins Table-III cell counts on the two PDE
// workloads, a small rising bubble and Burgers WENO5: every other campaign
// golden runs the oscillator, whose RHS never touches the pde and weno
// packages. Cells are sized by a replicate count, as the repository
// benchmark sizes them.
func TestTable3PDECountsGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, w := range []struct {
		name string
		n    int
		tEnd float64 // 0 keeps the problem's window
	}{{"bubble", 8, 2}, {"burgers", 64, 0}} {
		for i, det := range []DetectorKind{Classic, LBDC, IBDC, Replication} {
			p, err := problems.ByName(w.name, w.n)
			if err != nil {
				t.Fatal(err)
			}
			if w.tEnd > 0 {
				p.TEnd = w.tEnd
			}
			res, err := Run(Config{
				Problem:       p,
				Tab:           ode.HeunEuler(),
				Injector:      inject.Scaled{},
				Detector:      det,
				Seed:          20170905 + uint64(i),
				MinInjections: math.MaxInt,
				MaxRuns:       4,
				Workers:       0,
			})
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, det, err)
			}
			canon, err := json.Marshal(res.Canonical())
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "%s n=%d %s %s\n", w.name, w.n, det, canon)
		}
	}
	checkGolden(t, "table3_pde.golden", buf.Bytes())
}
