package implicit

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/la"
	"repro/internal/ode"
	"repro/internal/problems"
)

// The trajectory golden pins the implicit methods bit for bit: for SDIRK2(1)
// and BDF2, each unguarded and under IBDC, on four stiff problems, it records
// the final time and state bits and every step counter. The file was
// generated once and is never regenerated for a refactor: any change to it
// is a change of the methods' arithmetic or of the protected-step loop. The
// bits are those of the default amd64 build (GOAMD64=v1).

// trajectoryCase is one pinned integration.
type trajectoryCase struct {
	name           string
	p              *problems.Problem
	tEnd, h0, tol  float64
	noDirect       bool
	useProblemTols bool // Robertson's own TolA/TolR instead of tol
}

// trajectoryCases returns the pinned problems, in golden-file order. The
// blow-up case x' = x^2, x(0) = 1 (singular at t = 1) starts with a step
// whose stage equation has no real root, so it pins the failed-Newton retry.
func trajectoryCases() []trajectoryCase {
	relax := &problems.Problem{Sys: stiffRelax(100), X0: la.Vec{1}}
	blowup := &problems.Problem{Sys: control.Func{N: 1, F: func(_ float64, x, dst la.Vec) {
		dst[0] = x[0] * x[0]
	}}, X0: la.Vec{1}}
	return []trajectoryCase{
		{name: "relax100", p: relax, tEnd: 2, h0: 1e-3, tol: 1e-6},
		{name: "vdp1000", p: problems.VanDerPol(1000), tEnd: 20, h0: 1e-4, tol: 1e-5},
		{name: "robertson", p: problems.Robertson(), tEnd: 100, h0: 1e-6, useProblemTols: true},
		{name: "brusselator32-mf", p: problems.Brusselator1D(32), tEnd: 1, h0: 1e-3, tol: 1e-4, noDirect: true},
		{name: "blowup", p: blowup, tEnd: 0.99, h0: 0.9, tol: 1e-6},
	}
}

// trajectoryRecord is what the golden pins for one integration.
type trajectoryRecord struct {
	t                 float64
	x                 la.Vec
	steps, trials     int
	rejectedClassic   int
	rejectedValidator int
	fpRescues         int
	newtonRejects     int
	evals             int64
	newtonIters       int64
	krylovIters       int64
}

// runTrajectory integrates one case with the named method, guarded by IBDC
// when ibdc is set.
func runTrajectory(t *testing.T, method string, ibdc bool, c trajectoryCase) trajectoryRecord {
	t.Helper()
	in := &ode.Integrator{Ctrl: control.DefaultController(c.tol, c.tol)}
	if c.useProblemTols {
		in.Ctrl = control.DefaultController(c.p.TolA, c.p.TolR)
	}
	if ibdc {
		in.Validator = core.NewIBDC()
	}
	switch method {
	case "sdirk2":
		in.Method = &SDIRK2{NoDirect: c.noDirect}
	case "bdf2":
		in.Method = &BDF2{NoDirect: c.noDirect}
	}
	in.Init(c.p.Sys, 0, c.tEnd, c.p.X0, c.h0)
	if _, err := in.Run(); err != nil {
		t.Fatalf("%s on %s: %v", method, c.name, err)
	}
	st := in.Stats
	newtonIters, krylovIters := in.Method.(interface{ Iterations() (int64, int64) }).Iterations()
	return trajectoryRecord{
		t: in.T(), x: in.X().Clone(),
		steps: st.Steps, trials: st.TrialSteps,
		rejectedClassic: st.RejectedClassic, rejectedValidator: st.RejectedValidator,
		fpRescues: st.FPRescues, newtonRejects: st.Aborted,
		evals: st.Evals, newtonIters: newtonIters, krylovIters: krylovIters,
	}
}

// writeTrajectory appends one golden section, one value a line so that a
// moved counter shows as exactly one changed line.
func writeTrajectory(buf *bytes.Buffer, name string, r trajectoryRecord) {
	fmt.Fprintf(buf, "# %s\n", name)
	fmt.Fprintf(buf, "T %016x\n", math.Float64bits(r.t))
	fmt.Fprint(buf, "X")
	for _, v := range r.x {
		fmt.Fprintf(buf, " %016x", math.Float64bits(v))
	}
	fmt.Fprintln(buf)
	fmt.Fprintf(buf, "Steps %d\n", r.steps)
	fmt.Fprintf(buf, "TrialSteps %d\n", r.trials)
	fmt.Fprintf(buf, "RejectedClassic %d\n", r.rejectedClassic)
	fmt.Fprintf(buf, "RejectedValidator %d\n", r.rejectedValidator)
	fmt.Fprintf(buf, "FPRescues %d\n", r.fpRescues)
	fmt.Fprintf(buf, "NewtonRejects %d\n", r.newtonRejects)
	fmt.Fprintf(buf, "Evals %d\n", r.evals)
	fmt.Fprintf(buf, "NewtonIters %d\n", r.newtonIters)
	fmt.Fprintf(buf, "KrylovIters %d\n", r.krylovIters)
}

func TestTrajectoryGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, method := range []string{"sdirk2", "bdf2"} {
		for _, guard := range []string{"none", "ibdc"} {
			for _, c := range trajectoryCases() {
				r := runTrajectory(t, method, guard == "ibdc", c)
				writeTrajectory(&buf, method+"/"+guard+"/"+c.name, r)
			}
		}
	}
	path := filepath.Join("testdata", "trajectory.golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden: %v", err)
	}
	if bytes.Equal(buf.Bytes(), want) {
		return
	}
	gl, wl := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if !bytes.Equal(gl[i], wl[i]) {
			t.Fatalf("%s differs at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s differs in length: %d lines, want %d", path, len(gl), len(wl))
}
