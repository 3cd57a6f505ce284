// Package convergence provides automated order-of-accuracy verification:
// empirical convergence tables for the Runge-Kutta pairs, the implicit
// integrators, and the WENO reconstruction schemes. The same machinery
// backs the unit tests and the `sdcbench -exp verify` report, so the
// numerical claims in DESIGN.md (orders of every building block) are
// checkable in one command.
package convergence

import (
	"fmt"
	"io"
	"math"

	"repro/internal/control"
	"repro/internal/la"
	"repro/internal/ode"
	"repro/internal/weno"
)

// Row is one refinement level of a convergence study.
type Row struct {
	N     int     // resolution (steps or cells)
	Error float64 // measured error
	Order float64 // log2(prev/this); 0 for the first row
}

// Table runs errFn at successively doubled resolutions and annotates the
// observed orders.
func Table(ns []int, errFn func(n int) float64) []Row {
	rows := make([]Row, len(ns))
	for i, n := range ns {
		rows[i] = Row{N: n, Error: errFn(n)}
		if i > 0 && rows[i].Error > 0 {
			ratio := rows[i-1].Error / rows[i].Error
			step := float64(ns[i]) / float64(ns[i-1])
			rows[i].Order = math.Log(ratio) / math.Log(step)
		}
	}
	return rows
}

// ObservedOrder returns the order measured at the finest refinement.
func ObservedOrder(rows []Row) float64 {
	if len(rows) < 2 {
		return 0
	}
	return rows[len(rows)-1].Order
}

// oscillator is the reference problem with the exact solution (cos, -sin).
var oscillator = control.Func{N: 2, F: func(t float64, x, dst la.Vec) {
	dst[0] = x[1]
	dst[1] = -x[0]
}}

// RKError integrates the oscillator over [0, 2] with n fixed steps of the
// pair's propagated solution and returns the final error.
func RKError(tab *control.Tableau, n int) float64 {
	st := ode.NewStepper(tab, oscillator)
	x := la.Vec{1, 0}
	h := 2.0 / float64(n)
	t := 0.0
	for i := 0; i < n; i++ {
		res := st.Trial(t, h, x, nil, nil)
		x.CopyFrom(res.XProp)
		t += h
	}
	return math.Hypot(x[0]-math.Cos(2), x[1]+math.Sin(2))
}

// WENODerivError measures the conservative-derivative error of a scheme on
// sin(2 pi x) at n cells.
func WENODerivError(s weno.Scheme, n int) float64 {
	g := weno.Ghost
	f := make([]float64, n+2*g)
	for i := -g; i < n+g; i++ {
		ii := ((i % n) + n) % n
		x := (float64(ii) + 0.5) / float64(n)
		f[i+g] = math.Sin(2 * math.Pi * x)
	}
	fhat := make([]float64, n+1)
	s.ReconstructLeft(fhat, f)
	dx := 1.0 / float64(n)
	var maxErr float64
	for i := 0; i < n; i++ {
		d := (fhat[i+1] - fhat[i]) / dx
		x := (float64(i) + 0.5) / float64(n)
		if e := math.Abs(d - 2*math.Pi*math.Cos(2*math.Pi*x)); e > maxErr {
			maxErr = e
		}
	}
	return maxErr
}

// EstimateError measures the accuracy of a second-estimate family (LIP or
// BDF of order q) predicting exp(-t) from history with step h = 1/n.
func EstimateError(kind string, q, n int) float64 {
	h := 1.0 / float64(n)
	depth := q + 2
	hist := control.NewHistory(depth, 1)
	t := 0.0
	for k := 0; k < depth; k++ {
		hist.Push(t, h, la.Vec{math.Exp(-t)})
		t += h
	}
	target := t
	dst := la.NewVec(1)
	switch kind {
	case "lip":
		new(ode.LIPEstimator).Estimate(dst, hist, q, target)
	case "bdf":
		new(ode.BDFEstimator).Estimate(dst, hist, q, target, la.Vec{-math.Exp(-target)})
	default:
		panic("convergence: unknown estimate kind " + kind)
	}
	return math.Abs(dst[0] - math.Exp(-target))
}

// Report writes the full verification suite: RK pairs, WENO schemes, and
// the double-checking estimates, with expected vs observed orders.
func Report(w io.Writer) {
	fmt.Fprintln(w, "Empirical order verification (expected -> observed):")
	fmt.Fprintln(w)
	for _, tab := range ode.AllTableaus() {
		rows := Table([]int{32, 64, 128}, func(n int) float64 { return RKError(tab, n) })
		fmt.Fprintf(w, "  %-18s p=%d -> %.2f\n", tab.Name, tab.Order, ObservedOrder(rows))
	}
	schemes := []weno.Scheme{weno.Weno5{}, weno.WenoZ5{}, &weno.Crweno5{Periodic: true}}
	for _, s := range schemes {
		rows := Table([]int{32, 64, 128}, func(n int) float64 { return WENODerivError(s, n) })
		fmt.Fprintf(w, "  %-18s p=5 -> %.2f\n", s.Name(), ObservedOrder(rows))
	}
	for q := 1; q <= 3; q++ {
		rows := Table([]int{32, 64, 128}, func(n int) float64 { return EstimateError("lip", q, n) })
		fmt.Fprintf(w, "  LIP estimate q=%d   p=%d -> %.2f\n", q, q+1, ObservedOrder(rows))
	}
	for q := 1; q <= 3; q++ {
		rows := Table([]int{32, 64, 128}, func(n int) float64 { return EstimateError("bdf", q, n) })
		fmt.Fprintf(w, "  BDF estimate q=%d   p=%d -> %.2f\n", q, q+1, ObservedOrder(rows))
	}
}
