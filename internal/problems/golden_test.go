package problems

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/la"
	"repro/internal/xrand"
)

// The Burgers golden pins the exact float bits of the Burgers right-hand
// sides on a fixed seeded state: the campaign server's workload runs them,
// and its goldens cannot see a bit change at their tiny test scale. The
// file was generated once and is never regenerated for a refactor; the
// bits are those of the default amd64 build (GOAMD64=v1).
func TestBurgersEvalGolden(t *testing.T) {
	var buf bytes.Buffer
	for i, scheme := range []string{"weno5", "crweno5-periodic"} {
		p := Burgers1D(64, scheme)
		r := xrand.New(uint64(100 + i))
		x := p.X0.Clone()
		for j := range x {
			x[j] += 0.2 * (r.Float64() - 0.5)
		}
		dst := la.NewVec(len(x))
		p.Sys.Eval(0, x, dst)
		fmt.Fprintf(&buf, "# %s %d\n", p.Name, len(dst))
		for j, v := range dst {
			sep := " "
			if j%4 == 3 || j == len(dst)-1 {
				sep = "\n"
			}
			fmt.Fprintf(&buf, "%016x%s", math.Float64bits(v), sep)
		}
	}
	path := filepath.Join("testdata", "eval.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Burgers RHS bits differ from %s:\n--- got ---\n%s", path, buf.Bytes())
	}
}
