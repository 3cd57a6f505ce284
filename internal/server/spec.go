// Package server is the campaign-as-a-service layer: a long-running
// HTTP/JSON front end over the fault-injection harness. A submitted
// campaign spec is canonicalized, content-addressed by a hash of its
// determinism-relevant fields, sharded by seed onto a bounded worker pool,
// and served back as a byte-stable JSON report — identical, byte for byte,
// to what the serial reference engine produces for the same spec, which is
// what makes the result cache exact rather than heuristic.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"

	"repro/internal/control"
	"repro/internal/harness"
	"repro/internal/inject"
	"repro/internal/ode"
	"repro/internal/problems"
)

// Limits on a single submission. MaxSeeds bounds a campaign's shard count
// (and thereby its queue reservation); MaxMinInjections and MaxRuns bound
// the work a single shard may demand of the pool; MaxWorkers and MaxBatch
// bound the execution hints, since the harness sizes per-worker arenas and
// lockstep batches from them before a replicate runs.
const (
	MaxSeeds         = 1024
	MaxMinInjections = 1 << 20
	MaxRunsCeiling   = 1 << 20
	MaxWorkers       = 256
	MaxBatch         = 64
)

// Spec is the submission body of POST /v1/campaigns: one campaign = one
// (problem, method, injector, detector, injection config) cell swept over
// Seeds, one shard per seed. The zero values of the optional fields select
// the harness defaults, applied by Canonicalize so that specs that mean
// the same campaign hash the same.
//
// Workers, Batch, Trace and TraceCap are execution hints: they change how
// a shard runs (engine shape, telemetry) but — by the harness's
// determinism guarantees — not a single result byte, so they are excluded
// from the content hash.
type Spec struct {
	Problem  string   `json:"problem"`
	N        int      `json:"n,omitempty"`        // PDE grid resolution (0 = problems.DefaultGrid)
	Method   string   `json:"method,omitempty"`   // embedded pair (default heun-euler)
	Injector string   `json:"injector,omitempty"` // singlebit, multibit, scaled (default scaled)
	Detector string   `json:"detector,omitempty"` // control registry name (default classic)
	Seeds    []uint64 `json:"seeds"`              // one shard per seed, served in this order

	MinInjections int     `json:"min_injections,omitempty"` // per shard (0 = 1000)
	MaxRuns       int     `json:"max_runs,omitempty"`       // per shard (0 = 10000)
	InjectProb    float64 `json:"inject_prob,omitempty"`    // per evaluation (0 = 0.01)
	StateProb     float64 `json:"state_prob,omitempty"`     // §V-D state corruption (0 = off)

	TEnd float64 `json:"t_end,omitempty"` // integration horizon override (0 = problem default)
	TolA float64 `json:"tol_a,omitempty"` // absolute tolerance override (0 = problem default)
	TolR float64 `json:"tol_r,omitempty"` // relative tolerance override (0 = problem default)

	NoAdapt           bool `json:"no_adapt,omitempty"`
	FixedOrder        int  `json:"fixed_order,omitempty"`
	MaxNorm           bool `json:"max_norm,omitempty"`
	NoReuseFirstStage bool `json:"no_reuse_first_stage,omitempty"`

	// Execution hints — not part of the content hash.
	Workers  int  `json:"workers,omitempty"`   // per-shard engine workers (0 = 1, the serial engine)
	Batch    int  `json:"batch,omitempty"`     // lockstep lane width (0/1 = serial)
	Trace    bool `json:"trace,omitempty"`     // stream per-trial telemetry into the event feed
	TraceCap int  `json:"trace_cap,omitempty"` // trace ring capacity per shard (0 = DefaultTraceCap)
}

// DefaultTraceCap bounds a traced shard's event ring when the spec leaves
// TraceCap zero: large enough for a smoke-sized shard's full trace, small
// enough that a thousand traced campaigns stay in bounded memory.
const DefaultTraceCap = 4096

// Canonicalize fills every defaulted field in place with the value the
// harness would resolve it to, so equal campaigns submit equal canonical
// specs and the content hash is well-defined.
func (s *Spec) Canonicalize() {
	if s.N <= 0 {
		s.N = problems.DefaultGrid
	}
	if s.Method == "" {
		s.Method = "heun-euler"
	}
	if s.Injector == "" {
		s.Injector = "scaled"
	}
	if s.Detector == "" {
		s.Detector = string(harness.Classic)
	}
	if s.MinInjections == 0 {
		s.MinInjections = 1000
	}
	if s.MaxRuns == 0 {
		s.MaxRuns = 10000
	}
	if s.InjectProb == 0 {
		s.InjectProb = 0.01
	}
	if s.Workers < 1 {
		s.Workers = 1
	}
	if s.Batch < 2 {
		s.Batch = 0
	}
	if s.Trace && s.TraceCap <= 0 {
		s.TraceCap = DefaultTraceCap
	}
}

// Validate checks a canonicalized spec against the registries and limits;
// the error message names the valid alternatives so the API is
// self-describing.
func (s *Spec) Validate() error {
	if _, err := problems.ByName(s.Problem, s.N); err != nil {
		return fmt.Errorf("%w (valid: %v)", err, problems.Names())
	}
	if _, err := ode.TableauByName(s.Method); err != nil {
		return err
	}
	if _, err := inject.ByName(s.Injector); err != nil {
		return err
	}
	if !validDetector(s.Detector) {
		return fmt.Errorf("server: unknown detector %q (valid: %v)", s.Detector, control.Names())
	}
	if len(s.Seeds) == 0 {
		return fmt.Errorf("server: spec needs at least one seed")
	}
	if len(s.Seeds) > MaxSeeds {
		return fmt.Errorf("server: %d seeds exceeds the per-campaign limit of %d", len(s.Seeds), MaxSeeds)
	}
	if s.MinInjections < 0 || s.MinInjections > MaxMinInjections {
		return fmt.Errorf("server: min_injections %d outside [0, %d]", s.MinInjections, MaxMinInjections)
	}
	if s.MaxRuns < 0 || s.MaxRuns > MaxRunsCeiling {
		return fmt.Errorf("server: max_runs %d outside [0, %d]", s.MaxRuns, MaxRunsCeiling)
	}
	if s.InjectProb < 0 || s.InjectProb > 1 {
		return fmt.Errorf("server: inject_prob %g outside [0, 1]", s.InjectProb)
	}
	if s.StateProb < 0 || s.StateProb > 1 {
		return fmt.Errorf("server: state_prob %g outside [0, 1]", s.StateProb)
	}
	if s.Workers > MaxWorkers {
		return fmt.Errorf("server: workers %d exceeds the limit of %d", s.Workers, MaxWorkers)
	}
	if s.Batch > MaxBatch {
		return fmt.Errorf("server: batch %d exceeds the limit of %d", s.Batch, MaxBatch)
	}
	return nil
}

func validDetector(name string) bool {
	for _, n := range control.Names() {
		if n == name {
			return true
		}
	}
	return false
}

// appendCore writes the determinism-relevant fields shared by every shard
// of the spec — everything that feeds the campaign numbers except the
// seed — in a fixed order. It is the common prefix of the campaign and
// shard fingerprints.
func (s *Spec) appendCore(b []byte) []byte {
	kv := func(k, v string) {
		b = append(b, k...)
		b = append(b, '=')
		b = append(b, v...)
		b = append(b, '\n')
	}
	kv("problem", s.Problem)
	kv("n", strconv.Itoa(s.N))
	kv("method", s.Method)
	kv("injector", s.Injector)
	kv("detector", s.Detector)
	kv("min_injections", strconv.Itoa(s.MinInjections))
	kv("max_runs", strconv.Itoa(s.MaxRuns))
	kv("inject_prob", strconv.FormatFloat(s.InjectProb, 'x', -1, 64))
	kv("state_prob", strconv.FormatFloat(s.StateProb, 'x', -1, 64))
	kv("t_end", strconv.FormatFloat(s.TEnd, 'x', -1, 64))
	kv("tol_a", strconv.FormatFloat(s.TolA, 'x', -1, 64))
	kv("tol_r", strconv.FormatFloat(s.TolR, 'x', -1, 64))
	kv("no_adapt", strconv.FormatBool(s.NoAdapt))
	kv("fixed_order", strconv.Itoa(s.FixedOrder))
	kv("max_norm", strconv.FormatBool(s.MaxNorm))
	kv("no_reuse_first_stage", strconv.FormatBool(s.NoReuseFirstStage))
	return b
}

// Hash returns the campaign's content address: a SHA-256 over the
// canonical encoding of the determinism-relevant fields plus the ordered
// seed list. Two canonicalized specs hash equal exactly when the harness
// guarantees them byte-identical results, so a cache keyed on this hash is
// exact. Call Canonicalize first.
func (s *Spec) Hash() string {
	b := s.appendCore(make([]byte, 0, 512))
	b = append(b, "seeds="...)
	for i, seed := range s.Seeds {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, seed, 10)
	}
	b = append(b, '\n')
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// ShardKey returns the content address of one shard: the spec core plus
// one seed. Campaigns whose seed ranges overlap share shard keys, so a
// resubmission with one seed changed re-runs only the changed shard.
func (s *Spec) ShardKey(seed uint64) string {
	b := s.appendCore(make([]byte, 0, 512))
	b = append(b, "seed="...)
	b = strconv.AppendUint(b, seed, 10)
	b = append(b, '\n')
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// ShardConfig builds the harness configuration of one shard. The problem
// instance is fresh per call (overrides must not alias across shards), and
// the engine shape comes from the execution hints — any (Workers, Batch)
// produces the same canonical result as the serial reference, which is the
// contract the golden tests pin.
func (s *Spec) ShardConfig(seed uint64) (harness.Config, error) {
	p, err := problems.ByName(s.Problem, s.N)
	if err != nil {
		return harness.Config{}, err
	}
	if s.TEnd > 0 {
		p.TEnd = s.TEnd
	}
	if s.TolA > 0 {
		p.TolA = s.TolA
	}
	if s.TolR > 0 {
		p.TolR = s.TolR
	}
	tab, err := ode.TableauByName(s.Method)
	if err != nil {
		return harness.Config{}, err
	}
	inj, err := inject.ByName(s.Injector)
	if err != nil {
		return harness.Config{}, err
	}
	return harness.Config{
		Problem:           p,
		Tab:               tab,
		Injector:          inj,
		InjectProb:        s.InjectProb,
		Detector:          harness.DetectorKind(s.Detector),
		Seed:              seed,
		MinInjections:     s.MinInjections,
		MaxRuns:           s.MaxRuns,
		NoAdapt:           s.NoAdapt,
		FixedOrder:        s.FixedOrder,
		MaxNorm:           s.MaxNorm,
		NoReuseFirstStage: s.NoReuseFirstStage,
		StateProb:         s.StateProb,
		Workers:           s.Workers,
		Batch:             s.Batch,
		Trace:             s.Trace,
		TraceCap:          s.TraceCap,
	}, nil
}
