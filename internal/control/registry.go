package control

import (
	"fmt"
	"sort"
)

// Detector couples a Validator with its campaign accounting: the detector's
// persistent memory cost in solution-sized vectors and the mean
// double-checking order (0 for detectors without order adaptation). A nil
// Validator means the classic controller runs unguarded.
type Detector struct {
	Validator  Validator
	MemVectors func() float64
	MeanOrder  func() float64
}

// Spec carries everything a detector factory may need. Factories ignore the
// fields they have no use for (e.g. LBDC/IBDC need no Tableau or System).
type Spec struct {
	// Tab and Sys describe the integration the detector will guard; the
	// redundancy detectors (replication, TMR, Richardson) build their clean
	// shadow trialers from them.
	Tab *Tableau
	Sys System
	// NoAdapt disables Algorithm 1's order adaptation (ablation).
	NoAdapt bool
	// FixedOrder, when > 0, pins the double-checking order to FixedOrder-1
	// (i.e. pass q+1; 0 means the strategy default). Use with NoAdapt.
	FixedOrder int
}

// Factory builds one detector instance for one integration.
type Factory func(Spec) (Detector, error)

var registry = map[string]Factory{}

// Register adds a named detector factory. Detector implementations register
// themselves in their package init (internal/core registers the paper's
// detectors and the redundancy baselines); registering a duplicate name
// panics so a collision fails at program start, not mid-campaign.
func Register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("control: detector %q registered twice", name))
	}
	registry[name] = f
}

// Names returns the registered detector names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// New builds the named detector. Unknown names are an error (the caller
// decides whether that fails a campaign or a flag parse).
func New(name string, s Spec) (Detector, error) {
	f, ok := registry[name]
	if !ok {
		return Detector{}, fmt.Errorf("control: unknown detector %q", name)
	}
	d, err := f(s)
	if err != nil {
		return Detector{}, err
	}
	zero := func() float64 { return 0 }
	if d.MemVectors == nil {
		d.MemVectors = zero
	}
	if d.MeanOrder == nil {
		d.MeanOrder = zero
	}
	return d, nil
}

func init() {
	// The classic adaptive controller alone — the registry's identity
	// element, and the unguarded solver of a fixed-step cell — lives here:
	// it needs nothing beyond this package.
	Register("classic", func(Spec) (Detector, error) { return Detector{}, nil })
}
