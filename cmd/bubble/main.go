// Command bubble integrates the rising thermal bubble (the paper's Figure 2
// use case) and writes density-perturbation fields at requested snapshot
// times, optionally under SDC injection with a chosen detector.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/control"
	_ "repro/internal/core" // registers the detector factories
	"repro/internal/euler"
	"repro/internal/grid"
	"repro/internal/inject"
	"repro/internal/ode"
	"repro/internal/pde"
	"repro/internal/viz"
	"repro/internal/weno"
	"repro/internal/xrand"
)

func main() {
	var (
		n       = flag.Int("n", 64, "grid resolution per axis")
		dims    = flag.Int("dims", 2, "spatial dimensions (2 or 3; 3 matches the paper's 64^3 NUMA case)")
		scheme  = flag.String("scheme", "weno5", "weno5 or crweno5")
		method  = flag.String("method", "bogacki-shampine", "embedded RK pair")
		tol     = flag.Float64("tol", 1e-4, "absolute and relative tolerance")
		cfl     = flag.Float64("cfl", 0.5, "CFL cap for the step size")
		times   = flag.String("times", "0,100,150,200", "snapshot times (s)")
		outDir  = flag.String("out", "bubble-out", "output directory for field files")
		detName = flag.String("detector", "", "optional detector registry name (lbdc, ibdc, ...)")
		injProb = flag.Float64("inject", 0, "SDC probability per stage evaluation (0 = off)")
		seed    = flag.Uint64("seed", 1, "injection seed")
		dtheta  = flag.Float64("dtheta", 0.5, "bubble amplitude (K)")
		nu      = flag.Float64("nu", 0, "kinematic viscosity (parabolic term; 0 = inviscid)")
		kappa   = flag.Float64("kappa", 0, "thermal diffusivity (parabolic term)")
	)
	flag.Parse()

	sch, err := weno.ByName(*scheme)
	if err != nil {
		fatal(err)
	}
	tab, err := ode.TableauByName(*method)
	if err != nil {
		fatal(err)
	}
	var g *grid.Grid
	bub := euler.DefaultBubble()
	switch *dims {
	case 2:
		g = grid.New2D(*n, *n, 1000, 1000)
	case 3:
		g = grid.New3D(*n, *n, *n, 1000, 1000, 1000)
		bub.Center = [3]float64{500, 350, 500}
	default:
		fatal(fmt.Errorf("dims must be 2 or 3"))
	}
	sys := pde.NewEulerSystem(g, euler.DefaultGas(), sch)
	if *nu > 0 || *kappa > 0 {
		sys.SetParabolic(*nu, *kappa)
	}
	bub.DTheta = *dtheta
	x0 := sys.InitialState(bub)
	dt := sys.MaxDt(x0, *cfl)

	in := &ode.Integrator{Tab: tab, Ctrl: control.DefaultController(*tol, *tol), MaxStep: dt}
	if *detName != "" {
		det, err := control.New(*detName, control.Spec{Tab: tab, Sys: sys})
		if err != nil {
			fatal(fmt.Errorf("unknown detector %q", *detName))
		}
		in.Validator = det.Validator
	}
	if *injProb > 0 {
		plan := inject.NewPlan(xrand.New(*seed), inject.Scaled{})
		plan.Prob = *injProb
		in.Hook = plan.Hook
	}

	var snaps []float64
	for _, s := range strings.Split(*times, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			fatal(err)
		}
		snaps = append(snaps, v)
	}
	tEnd := snaps[len(snaps)-1]
	in.Init(sys, 0, tEnd, x0, dt/4)

	fmt.Printf("bubble: %d^%d %s %s tol=%g dt<=%.4f s\n", *n, *dims, *scheme, *method, *tol, dt)
	for _, tSnap := range snaps {
		for in.T() < tSnap-1e-9 {
			if err := in.Step(); err != nil {
				fatal(fmt.Errorf("integration failed at t=%.2f: %w", in.T(), err))
			}
		}
		if err := writeField(sys, in, *outDir); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("done: steps=%d evals=%d classic rejections=%d detector rejections=%d SDCs=%d\n",
		in.Stats.Steps, in.Stats.Evals, in.Stats.RejectedClassic, in.Stats.RejectedValidator, in.Stats.Injections)
}

func writeField(sys *pde.EulerSystem, in *ode.Integrator, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	g := sys.Grid
	rho := sys.VarSlice(in.X(), 0)
	var sb strings.Builder
	// For 3-D runs, write the paper's y = 500 m cross-section (the mid-plane
	// along the third axis).
	kMid := g.N[2] / 2
	fmt.Fprintf(&sb, "# rising thermal bubble, t = %.3f s (cross-section k=%d)\n# x z rho'\n", in.T(), kMid)
	lo, hi := 0.0, 0.0
	for _, v := range rho {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	for j := 0; j < g.N[1]; j++ {
		for i := 0; i < g.N[0]; i++ {
			fmt.Fprintf(&sb, "%g %g %.8e\n", g.Coord(0, i), g.Coord(1, j), rho[g.Index(i, j, kMid)])
		}
		sb.WriteString("\n")
	}
	path := filepath.Join(dir, fmt.Sprintf("rho_t%06.1f.dat", in.T()))
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		return err
	}
	// PGM image of the same cross-section for direct viewing.
	plane := make([]float64, g.N[0]*g.N[1])
	for j := 0; j < g.N[1]; j++ {
		for i := 0; i < g.N[0]; i++ {
			plane[i+g.N[0]*j] = rho[g.Index(i, j, kMid)]
		}
	}
	imgPath := filepath.Join(dir, fmt.Sprintf("rho_t%06.1f.pgm", in.T()))
	img, err := os.Create(imgPath)
	if err != nil {
		return err
	}
	ferr := viz.NewField(g.N[0], g.N[1], plane).PGM(img, lo, hi)
	if cerr := img.Close(); ferr == nil {
		ferr = cerr
	}
	if ferr != nil {
		return ferr
	}
	fmt.Printf("t=%7.1f s  rho' in [%.5f, %.5f]  -> %s (+.pgm)\n", in.T(), lo, hi, path)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bubble:", err)
	os.Exit(1)
}
