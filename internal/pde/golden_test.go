package pde

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/euler"
	"repro/internal/grid"
	"repro/internal/la"
	"repro/internal/weno"
	"repro/internal/xrand"
)

// The Eval golden pins the exact float bits of the right-hand side on
// fixed seeded states, one case per configuration the RHS distinguishes:
// grid rank, boundary treatment, scheme, parabolic terms, and the fields
// callers set after construction (BCs, AlphaOverride). The campaign
// goldens all run ODE workloads, so without this file nothing would notice
// a change in the RHS bits. The file was generated once and is never
// regenerated for a refactor: any change to it is a change of the
// discretisation. The bits are those of the default amd64 build
// (GOAMD64=v1), where the compiler fuses no multiply-add.

// evalCase is one pinned configuration: a system and the state its RHS is
// evaluated on.
type evalCase struct {
	name string
	sys  *EulerSystem
	x    la.Vec
}

// perturb adds deterministic noise to x: a few percent of the background
// density and energy, and velocities up to five percent of the background
// sound speed, so every flux term and every ghost-cell treatment carries
// signal.
func perturb(s *EulerSystem, x la.Vec, seed uint64) la.Vec {
	r := xrand.New(seed)
	for idx := 0; idx < s.np; idx++ {
		rho, p, e := s.bg[0][idx], s.bg[1][idx], s.bg[2][idx]
		c := s.Gas.SoundSpeed(p, rho)
		x[idx] += 0.02 * rho * (r.Float64() - 0.5)
		for i := 0; i < s.d; i++ {
			x[(1+i)*s.np+idx] += 0.1 * c * rho * (r.Float64() - 0.5)
		}
		x[(1+s.d)*s.np+idx] += 0.02 * e * (r.Float64() - 0.5)
	}
	return x
}

// bubbleCase is the rising bubble on an nx-by-ny grid, its initial state
// perturbed with the given seed.
func bubbleCase(name string, nx, ny int, scheme weno.Scheme, seed uint64) evalCase {
	g := grid.New2D(nx, ny, 1000, 1000*float64(ny)/float64(nx))
	s := NewEulerSystem(g, euler.DefaultGas(), scheme)
	return evalCase{name, s, perturb(s, s.InitialState(euler.DefaultBubble()), seed)}
}

// sodCase is a gravity-free 1-D shock tube with outflow ends.
func sodCase(n int, seed uint64) evalCase {
	g := grid.New1D(n, 1.0)
	s := NewEulerSystem(g, euler.Gas{Gamma: 1.4, R: 1, G: 0, P0: 1, Theta0: 1}, weno.Weno5{})
	s.BCs = [3]BC{Outflow, Outflow, Outflow}
	x := la.NewVec(s.Dim())
	for i := n / 2; i < n; i++ {
		x[i] = 0.125 - 1
		x[2*n+i] = 0.1/0.4 - 2.5
	}
	return evalCase{"sod32-outflow", s, perturb(s, x, seed)}
}

// cubeCase is a 3-D bubble on an n^3 grid.
func cubeCase(n int, seed uint64) evalCase {
	g := grid.New3D(n, n, n, 1000, 1000, 1000)
	s := NewEulerSystem(g, euler.DefaultGas(), weno.Weno5{})
	b := euler.BubbleSpec{Center: [3]float64{500, 350, 500}, Rc: 250, DTheta: 0.5}
	return evalCase{fmt.Sprintf("cube%d-weno5", n), s, perturb(s, s.InitialState(b), seed)}
}

// evalCases returns the pinned configurations, in golden-file order.
func evalCases() []evalCase {
	cs := []evalCase{
		bubbleCase("bubble16-weno5", 16, 16, weno.Weno5{}, 1),
		bubbleCase("bubble8x12-weno5", 8, 12, weno.Weno5{}, 2),
		sodCase(32, 3),
		cubeCase(6, 4),
	}
	par := bubbleCase("bubble8-parabolic", 8, 8, weno.Weno5{}, 5)
	par.sys.SetParabolic(10, 20)
	alpha := bubbleCase("bubble8-alpha-override", 8, 8, weno.Weno5{}, 6)
	alpha.sys.AlphaOverride = []float64{400, 450, 0}
	outflow := bubbleCase("bubble8-bcs-outflow", 8, 8, weno.Weno5{}, 7)
	outflow.sys.BCs = [3]BC{Outflow, Outflow, Periodic}
	wall := bubbleCase("bubble8-bcs-wall-periodic", 8, 8, weno.Weno5{}, 8)
	wall.sys.BCs = [3]BC{Wall, Periodic, Periodic}
	cs = append(cs, par, alpha, outflow, wall,
		bubbleCase("bubble10-weno5", 10, 10, weno.Weno5{}, 9),
		bubbleCase("bubble10-wenoz5", 10, 10, weno.WenoZ5{}, 10),
		bubbleCase("bubble10-crweno5", 10, 10, &weno.Crweno5{}, 11),
	)
	// A second evaluation on one system: nothing a first call leaves
	// behind may leak into the next.
	again := bubbleCase("bubble8-second-eval", 8, 8, weno.Weno5{}, 12)
	again.sys.Eval(0, perturb(again.sys, la.NewVec(again.sys.Dim()), 13), la.NewVec(again.sys.Dim()))
	return append(cs, again)
}

// writeBits appends one golden section: a header naming the case and its
// length, then the bits of v in hex, four values a line.
func writeBits(buf *bytes.Buffer, name string, v []float64) {
	fmt.Fprintf(buf, "# %s %d\n", name, len(v))
	for i, f := range v {
		sep := " "
		if i%4 == 3 || i == len(v)-1 {
			sep = "\n"
		}
		fmt.Fprintf(buf, "%016x%s", math.Float64bits(f), sep)
	}
}

// checkGoldenFile compares got with testdata/name and reports the first
// differing line.
func checkGoldenFile(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s differs at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s differs in length: %d lines, want %d", path, len(gl), len(wl))
}

func TestEvalGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, c := range evalCases() {
		dst := la.NewVec(c.sys.Dim())
		c.sys.Eval(0, c.x, dst)
		writeBits(&buf, c.name, dst)
	}
	checkGoldenFile(t, "eval.golden", buf.Bytes())
}
