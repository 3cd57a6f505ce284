// Package inject implements the paper's three SDC injection models (§II-E):
// single-bit flips, multi-bit flips, and scaled injections (multiplication
// by a standard-normal factor), together with the per-function-evaluation
// Bernoulli targeting used in the experiments (each stage evaluation is
// corrupted with probability 1/100, one uniformly chosen component).
package inject

import (
	"fmt"
	"math"

	"repro/internal/la"
	"repro/internal/xrand"
)

// Injector corrupts one component of a vector, returning the corrupted
// value derived from the original.
type Injector interface {
	Name() string
	Corrupt(r *xrand.RNG, old float64) float64
}

// SingleBit flips exactly one uniformly chosen bit of the IEEE 754
// representation. The paper's example: 1.0 can become +Inf (exponent bit)
// or a subnormal (another exponent bit).
type SingleBit struct{}

// Name implements Injector.
func (SingleBit) Name() string { return "singlebit" }

// Corrupt implements Injector.
func (SingleBit) Corrupt(r *xrand.RNG, old float64) float64 {
	bits := math.Float64bits(old)
	bits ^= 1 << uint(r.IntN(64))
	return math.Float64frombits(bits)
}

// MultiBit flips several distinct uniformly chosen bits; the number of
// flips is drawn uniformly from [2, 16] (the paper draws the count from a
// uniform distribution without stating its support).
type MultiBit struct{}

// Name implements Injector.
func (MultiBit) Name() string { return "multibit" }

// Corrupt implements Injector.
func (MultiBit) Corrupt(r *xrand.RNG, old float64) float64 {
	n := 2 + r.IntN(15) // uniform in [2, 16]
	bits := math.Float64bits(old)
	var flipped uint64
	for k := 0; k < n; {
		b := uint(r.IntN(64))
		if flipped&(1<<b) != 0 {
			continue
		}
		flipped |= 1 << b
		bits ^= 1 << b
		k++
	}
	return math.Float64frombits(bits)
}

// Scaled multiplies the value by a factor drawn from a standard normal
// distribution (Benson, Schmit & Schreiber's injection model).
type Scaled struct{}

// Name implements Injector.
func (Scaled) Name() string { return "scaled" }

// Corrupt implements Injector.
func (Scaled) Corrupt(r *xrand.RNG, old float64) float64 {
	return old * r.Norm()
}

// ByName returns the injector for one of "singlebit", "multibit", "scaled".
func ByName(name string) (Injector, error) {
	switch name {
	case "singlebit":
		return SingleBit{}, nil
	case "multibit":
		return MultiBit{}, nil
	case "scaled":
		return Scaled{}, nil
	}
	return nil, fmt.Errorf("inject: unknown injector %q", name)
}

// All returns the three injectors in the order the paper's tables list them.
func All() []Injector {
	return []Injector{MultiBit{}, SingleBit{}, Scaled{}}
}

// Plan drives injections into stage evaluations: each evaluation is
// corrupted with probability Prob, at one uniformly chosen component. Wire
// Hook into Integrator.Hook. Plans are not safe for concurrent use; give
// each rank its own via RNG.Split.
type Plan struct {
	R       *xrand.RNG
	Inj     Injector
	Prob    float64 // per function evaluation; the paper uses 1/100
	Enabled bool
	Count   int64 // total corruptions applied
}

// NewPlan returns an enabled plan with the paper's default probability.
func NewPlan(r *xrand.RNG, inj Injector) *Plan {
	return &Plan{R: r, Inj: inj, Prob: 0.01, Enabled: true}
}

// Hook implements control.StageHook: it corrupts k in place and returns the
// number of corruptions applied (0 or 1).
func (p *Plan) Hook(stage int, t float64, k la.Vec) int {
	if !p.Enabled || len(k) == 0 || !p.R.Bernoulli(p.Prob) {
		return 0
	}
	i := p.R.IntN(len(k))
	k[i] = p.Inj.Corrupt(p.R, k[i])
	p.Count++
	return 1
}

// Pause disables injection (e.g. during clean shadow recomputation) and
// returns a function restoring the previous state.
func (p *Plan) Pause() func() {
	prev := p.Enabled
	p.Enabled = false
	return func() { p.Enabled = prev }
}

// StateHook implements the integrator's state-corruption hook (the paper's
// §V-D scenario of an SDC shifting the stored solution): with probability
// Prob it corrupts one uniformly chosen component of the transient state
// copy x.
func (p *Plan) StateHook(t float64, x la.Vec) int {
	if !p.Enabled || len(x) == 0 || !p.R.Bernoulli(p.Prob) {
		return 0
	}
	i := p.R.IntN(len(x))
	x[i] = p.Inj.Corrupt(p.R, x[i])
	p.Count++
	return 1
}

// FieldSelective restricts injection targets to the component range
// [Lo, Hi) of the vector — for field-blocked PDE states (variable-major
// layout) it confines corruption to one physical variable, enabling
// per-field vulnerability studies on the bubble workload.
type FieldSelective struct {
	Lo, Hi int
	Inner  Injector
}

// Name implements Injector.
func (f FieldSelective) Name() string {
	return fmt.Sprintf("%s[%d:%d]", f.Inner.Name(), f.Lo, f.Hi)
}

// Corrupt implements Injector (value transformation is delegated).
func (f FieldSelective) Corrupt(r *xrand.RNG, old float64) float64 {
	return f.Inner.Corrupt(r, old)
}

// HookFor returns a stage hook that corrupts only within the selected
// range, with the plan's probability and count.
func (p *Plan) HookFor(sel FieldSelective) func(stage int, t float64, k la.Vec) int {
	return func(stage int, t float64, k la.Vec) int {
		if !p.Enabled || !p.R.Bernoulli(p.Prob) {
			return 0
		}
		lo, hi := sel.Lo, sel.Hi
		if hi > len(k) {
			hi = len(k)
		}
		if lo >= hi {
			return 0
		}
		i := lo + p.R.IntN(hi-lo)
		k[i] = sel.Inner.Corrupt(p.R, k[i])
		p.Count++
		return 1
	}
}
