// Package batch steps a group of replicate lanes round by round. Each lane
// is its own ode.Integrator, so a lane computes bit for bit what a serial
// run of the same replicate computes; a round only interleaves them.
//
// The package exists for the repository benchmark (perfbench), whose layer
// replay prices a round of eight lanes. It goes with the benchmark change
// that drops that measurement; nothing else in the tree uses it.
package batch

import (
	"fmt"

	"repro/internal/control"
	"repro/internal/la"
	"repro/internal/ode"
)

// Config is the integrator configuration every lane shares. The fields and
// their zero values mean what they mean on ode.Integrator.
type Config struct {
	Tab      *control.Tableau
	Ctrl     control.Controller
	MaxSteps int     // a lane retires after this many accepted steps (0 = 1<<20)
	MinStep  float64 // below this a lane fails (0 = 1e-14 * lane span)
	MaxStep  float64 // upper clamp on the step size (0 = none)
}

// LaneConfig is one lane's replicate: its system, validator and span.
type LaneConfig struct {
	Sys       control.System
	Validator control.Validator
	T0, TEnd  float64
	X0        la.Vec
	H0        float64
}

// Lane is one replicate of the group.
type Lane struct {
	in  ode.Integrator
	err error // the Step error that retired the lane, nil otherwise
}

// Stats returns the lane's integration counters.
func (ln *Lane) Stats() ode.Stats { return ln.in.Stats }

// Integrator holds up to width live lanes of dimension dim.
type Integrator struct {
	cfg        Config
	width, dim int
	live       []*Lane
}

// New returns an Integrator for up to width lanes of dimension dim.
func New(cfg Config, width, dim int) *Integrator {
	return &Integrator{cfg: cfg, width: width, dim: dim, live: make([]*Lane, 0, width)}
}

// AddLane starts a lane on lc and returns it. It panics when width lanes
// are live or the lane's dimension is not dim.
func (b *Integrator) AddLane(lc LaneConfig) *Lane {
	if len(b.live) == b.width || lc.Sys.Dim() != b.dim {
		panic(fmt.Sprintf("batch: lane of dimension %d does not fit %d live lanes of width %d, dimension %d",
			lc.Sys.Dim(), len(b.live), b.width, b.dim))
	}
	c := b.cfg
	ln := &Lane{in: ode.Integrator{Tab: c.Tab, Ctrl: c.Ctrl, Validator: lc.Validator,
		MaxSteps: c.MaxSteps, MinStep: c.MinStep, MaxStep: c.MaxStep}}
	ln.in.Init(lc.Sys, lc.T0, lc.TEnd, lc.X0, lc.H0)
	b.live = append(b.live, ln)
	return ln
}

// Live returns the number of lanes still stepping.
func (b *Integrator) Live() int { return len(b.live) }

// Round advances every live lane by one accepted step, then retires the
// lanes that reached TEnd, failed, or took MaxSteps steps.
func (b *Integrator) Round() {
	n := 0
	for _, ln := range b.live {
		in := &ln.in
		if ln.err = in.Step(); ln.err == nil && !in.Done() && in.Stats.Steps < in.MaxSteps {
			b.live[n] = ln
			n++
		}
	}
	clear(b.live[n:])
	b.live = b.live[:n]
}
