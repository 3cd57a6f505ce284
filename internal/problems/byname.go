package problems

import (
	"fmt"
	"sort"

	"repro/internal/weno"
)

// DefaultGrid is the grid resolution ByName uses for PDE workloads when
// the caller passes n <= 0 — the laptop-scale default of the CLIs and the
// campaign server.
const DefaultGrid = 128

// builders maps the workload names accepted by ByName to their
// constructors. n is the grid resolution; scalar/ODE workloads ignore it.
var builders = map[string]func(n int) *Problem{
	"burgers": func(n int) *Problem {
		p := Burgers1D(n, "weno5")
		p.TEnd = 0.25
		return p
	},
	"burgers-crweno": func(n int) *Problem {
		p := Burgers1D(n, "crweno5-periodic")
		p.TEnd = 0.25
		return p
	},
	"bubble":      func(n int) *Problem { return Bubble2D(n, "weno5", 30) },
	"decay":       func(int) *Problem { return Decay() },
	"oscillator":  func(int) *Problem { return Oscillator() },
	"vanderpol":   func(int) *Problem { return VanDerPol(5) },
	"lorenz":      func(int) *Problem { return Lorenz() },
	"brusselator": func(n int) *Problem { return Brusselator1D(n / 2) },
	"unstable":    func(int) *Problem { return Unstable() },
	"arenstorf":   func(int) *Problem { return Arenstorf() },
	"heat":        func(n int) *Problem { return Heat1D(n) },
	"advection":   func(n int) *Problem { return Advection1D(n) },
}

// ByName constructs the named campaign workload at grid resolution n
// (n <= 0 selects DefaultGrid; non-PDE workloads ignore n). Every call
// returns a fresh Problem, so callers may override tolerances or TEnd
// without aliasing. It is the single name-to-workload mapping shared by
// the CLIs and the campaign server.
//
// The bubble's wall boundaries mirror weno.Ghost cells into each side of
// an axis, so a bubble grid narrower than that is an error.
func ByName(name string, n int) (*Problem, error) {
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("problems: unknown workload %q", name)
	}
	if n <= 0 {
		n = DefaultGrid
	}
	if name == "bubble" && n < weno.Ghost {
		return nil, fmt.Errorf("problems: bubble grid n=%d is narrower than the WENO ghost width %d", n, weno.Ghost)
	}
	return b(n), nil
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
