package problems

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/weno"
)

// DefaultGrid is the grid resolution ByName uses for PDE workloads when
// the caller passes n <= 0 — the laptop-scale default of the CLIs and the
// campaign server.
const DefaultGrid = 128

// maxBubbleGrid bounds the bubble's n-by-n grid at twice DefaultGrid, which
// is the largest grid any command or document runs. The problem's memory
// grows as n², and the campaign server builds it on the request's
// goroutine.
const maxBubbleGrid = 2 * DefaultGrid

// max1DGrid bounds the 1-D grids so that no state outgrows the largest
// bubble's, which holds four variables per point: 4·256² = 262,144 values.
const max1DGrid = 4 * maxBubbleGrid * maxBubbleGrid

// workload is a ByName entry: its constructor and the grid range
// [min, max] it accepts. Scalar and ODE workloads ignore n and accept any.
type workload struct {
	build    func(n int) *Problem
	min, max int
}

// builders maps the workload names accepted by ByName to their entries.
// The bubble's wall boundaries mirror weno.Ghost cells into each side of an
// axis, so its grid is at least that wide. The Brusselator places n/2
// interior cells, so n = 1 would be a system of dimension 0, on which a
// campaign runs its replicates without a single injection. The other 1-D
// grids run from n = 1.
var builders = map[string]workload{
	"burgers": {func(n int) *Problem {
		p := Burgers1D(n, "weno5")
		p.TEnd = 0.25
		return p
	}, 1, max1DGrid},
	"burgers-crweno": {func(n int) *Problem {
		p := Burgers1D(n, "crweno5-periodic")
		p.TEnd = 0.25
		return p
	}, 1, max1DGrid},
	"bubble":      {func(n int) *Problem { return Bubble2D(n, "weno5", 30) }, weno.Ghost, maxBubbleGrid},
	"decay":       {func(int) *Problem { return Decay() }, 1, math.MaxInt},
	"oscillator":  {func(int) *Problem { return Oscillator() }, 1, math.MaxInt},
	"vanderpol":   {func(int) *Problem { return VanDerPol(5) }, 1, math.MaxInt},
	"lorenz":      {func(int) *Problem { return Lorenz() }, 1, math.MaxInt},
	"brusselator": {func(n int) *Problem { return Brusselator1D(n / 2) }, 2, max1DGrid},
	"unstable":    {func(int) *Problem { return Unstable() }, 1, math.MaxInt},
	"arenstorf":   {func(int) *Problem { return Arenstorf() }, 1, math.MaxInt},
	"heat":        {func(n int) *Problem { return Heat1D(n) }, 1, max1DGrid},
	"advection":   {func(n int) *Problem { return Advection1D(n) }, 1, max1DGrid},
}

// ByName constructs the named campaign workload at grid resolution n
// (n <= 0 selects DefaultGrid; non-PDE workloads ignore n). Every call
// returns a fresh Problem, so callers may override tolerances or TEnd
// without aliasing. It is the single name-to-workload mapping shared by
// the CLIs and the campaign server.
//
// A grid outside the workload's range is an error, reported before
// anything is built. The bubble runs from weno.Ghost to 256 (twice
// DefaultGrid; at n = 2048 the problem alone would take 369 MB). The 1-D
// grids run up to 262,144, the largest bubble's state size, from n = 2 for
// the Brusselator and from n = 1 for the others.
func ByName(name string, n int) (*Problem, error) {
	w, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("problems: unknown workload %q", name)
	}
	if n <= 0 {
		n = DefaultGrid
	}
	if n < w.min || n > w.max {
		return nil, fmt.Errorf("problems: %s grid n=%d is outside its range [%d, %d]", name, n, w.min, w.max)
	}
	return w.build(n), nil
}

// Names returns the workload names ByName accepts, sorted.
func Names() []string {
	names := make([]string, 0, len(builders))
	for name := range builders {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
