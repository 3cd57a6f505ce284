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
// flips is drawn uniformly from [2, MaxBits] (the paper draws the count
// from a uniform distribution without stating its support).
type MultiBit struct {
	MaxBits int // default 16
}

// Name implements Injector.
func (MultiBit) Name() string { return "multibit" }

// Corrupt implements Injector.
func (m MultiBit) Corrupt(r *xrand.RNG, old float64) float64 {
	maxb := m.MaxBits
	if maxb < 2 {
		maxb = 16
	}
	if maxb > 64 {
		maxb = 64
	}
	n := 2 + r.IntN(maxb-1) // uniform in [2, maxb]
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

// Record is the ground truth of one applied corruption.
type Record struct {
	Time  float64 // stage abscissa at injection
	Stage int     // stage index (Tab.Stages() = the double-check evaluation)
	Index int     // corrupted component
	Old   float64
	New   float64
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

	// KeepRecords retains the full ground-truth log (costly in long runs).
	KeepRecords bool
	Records     []Record
	Count       int64 // total corruptions applied
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
	old := k[i]
	k[i] = p.Inj.Corrupt(p.R, old)
	p.Count++
	if p.KeepRecords {
		p.Records = append(p.Records, Record{Time: t, Stage: stage, Index: i, Old: old, New: k[i]})
	}
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
	old := x[i]
	x[i] = p.Inj.Corrupt(p.R, old)
	p.Count++
	if p.KeepRecords {
		p.Records = append(p.Records, Record{Time: t, Stage: -1, Index: i, Old: old, New: x[i]})
	}
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
// range, with the plan's probability and bookkeeping.
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
		old := k[i]
		k[i] = sel.Inner.Corrupt(p.R, old)
		p.Count++
		if p.KeepRecords {
			p.Records = append(p.Records, Record{Time: t, Stage: stage, Index: i, Old: old, New: k[i]})
		}
		return 1
	}
}

// Burst corrupts Len consecutive components starting at a uniformly chosen
// offset, modeling cache-line or DRAM-burst corruption where one fault
// clobbers several adjacent words (beyond the ECC protection the paper's
// §II-E notes does not cover multibit upsets).
type Burst struct {
	Len   int // corrupted consecutive components (default 8)
	Inner Injector
}

// Name implements Injector.
func (b Burst) Name() string { return fmt.Sprintf("burst%d-%s", b.len(), b.inner().Name()) }

func (b Burst) len() int {
	if b.Len <= 0 {
		return 8
	}
	return b.Len
}

func (b Burst) inner() Injector {
	if b.Inner == nil {
		return MultiBit{}
	}
	return b.Inner
}

// Corrupt implements Injector for a single value (the burst placement is
// handled by HookBurst).
func (b Burst) Corrupt(r *xrand.RNG, old float64) float64 {
	return b.inner().Corrupt(r, old)
}

// HookBurst returns a stage hook applying burst corruption with the plan's
// probability: Len consecutive components, each corrupted by Inner. The
// whole burst counts as one SDC event.
func (p *Plan) HookBurst(b Burst) func(stage int, t float64, k la.Vec) int {
	return func(stage int, t float64, k la.Vec) int {
		if !p.Enabled || len(k) == 0 || !p.R.Bernoulli(p.Prob) {
			return 0
		}
		l := b.len()
		if l > len(k) {
			l = len(k)
		}
		start := 0
		if len(k) > l {
			start = p.R.IntN(len(k) - l + 1)
		}
		for i := start; i < start+l; i++ {
			old := k[i]
			k[i] = b.inner().Corrupt(p.R, old)
			if p.KeepRecords {
				p.Records = append(p.Records, Record{Time: t, Stage: stage, Index: i, Old: old, New: k[i]})
			}
		}
		p.Count++
		return 1
	}
}
