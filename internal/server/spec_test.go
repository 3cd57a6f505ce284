package server

import (
	"strings"
	"testing"
)

// baseSpec is the fast test workload: the oscillator on a short horizon at
// loose tolerance (the harness test suite's fastProblem), with a small
// injection budget so a shard finishes in milliseconds.
func baseSpec(seeds ...uint64) Spec {
	return Spec{
		Problem:       "oscillator",
		Seeds:         seeds,
		MinInjections: 40,
		TEnd:          3,
		TolA:          1e-4,
		TolR:          1e-4,
	}
}

func TestSpecCanonicalizeDefaults(t *testing.T) {
	s := Spec{Problem: "oscillator", Seeds: []uint64{1}}
	s.Canonicalize()
	if s.Method != "heun-euler" || s.Injector != "scaled" || s.Detector != "classic" {
		t.Fatalf("defaults not applied: %+v", s)
	}
	if s.MinInjections != 1000 || s.MaxRuns != 10000 || s.InjectProb != 0.01 {
		t.Fatalf("budget defaults not applied: %+v", s)
	}
	if s.Workers != 1 {
		t.Fatalf("workers hint not canonicalized: workers=%d", s.Workers)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("canonical default spec invalid: %v", err)
	}
}

func TestSpecHashIgnoresExecutionHints(t *testing.T) {
	a := baseSpec(1, 2, 3)
	b := baseSpec(1, 2, 3)
	b.Workers, b.Trace, b.TraceCap = 8, false, 0
	a.Canonicalize()
	b.Canonicalize()
	if a.Hash() != b.Hash() {
		t.Fatalf("execution hints leaked into the content hash")
	}
	if a.ShardKey(2) != b.ShardKey(2) {
		t.Fatalf("execution hints leaked into the shard key")
	}
}

func TestSpecHashSeparatesCampaigns(t *testing.T) {
	a := baseSpec(1, 2, 3)
	a.Canonicalize()
	mutations := []struct {
		name string
		fn   func(*Spec)
	}{
		{"seed", func(s *Spec) { s.Seeds = []uint64{1, 2, 4} }},
		{"seed order", func(s *Spec) { s.Seeds = []uint64{3, 2, 1} }},
		{"detector", func(s *Spec) { s.Detector = "ibdc" }},
		{"injector", func(s *Spec) { s.Injector = "singlebit" }},
		{"budget", func(s *Spec) { s.MinInjections = 41 }},
		{"prob", func(s *Spec) { s.InjectProb = 0.02 }},
		{"horizon", func(s *Spec) { s.TEnd = 4 }},
	}
	for _, m := range mutations {
		b := baseSpec(1, 2, 3)
		m.fn(&b)
		b.Canonicalize()
		if a.Hash() == b.Hash() {
			t.Errorf("%s mutation did not change the campaign hash", m.name)
		}
	}
}

func TestSpecNearMissSharesShardKeys(t *testing.T) {
	a := baseSpec(1, 2, 3)
	b := baseSpec(1, 2, 4) // one seed changed
	a.Canonicalize()
	b.Canonicalize()
	if a.Hash() == b.Hash() {
		t.Fatalf("near-miss campaigns must hash differently")
	}
	if a.ShardKey(1) != b.ShardKey(1) || a.ShardKey(2) != b.ShardKey(2) {
		t.Fatalf("unchanged seeds must share shard keys across campaigns")
	}
	if a.ShardKey(3) == b.ShardKey(4) {
		t.Fatalf("distinct seeds must have distinct shard keys")
	}
}

func TestSpecValidateErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"problem", func(s *Spec) { s.Problem = "nonesuch" }, "unknown workload"},
		{"bubble grid", func(s *Spec) { s.Problem, s.N = "bubble", 2 }, "ghost width"},
		{"wide bubble grid", func(s *Spec) { s.Problem, s.N = "bubble", 4096 }, "largest grid"},
		{"brusselator grid", func(s *Spec) { s.Problem, s.N = "brusselator", 1 }, "interior cell"},
		{"method", func(s *Spec) { s.Method = "rk9" }, "unknown tableau"},
		{"injector", func(s *Spec) { s.Injector = "cosmic" }, "unknown injector"},
		{"detector", func(s *Spec) { s.Detector = "psychic" }, "unknown detector"},
		{"no seeds", func(s *Spec) { s.Seeds = nil }, "at least one seed"},
		{"too many seeds", func(s *Spec) { s.Seeds = make([]uint64, MaxSeeds+1) }, "exceeds"},
		{"inject prob", func(s *Spec) { s.InjectProb = 1.5 }, "inject_prob"},
		{"state prob", func(s *Spec) { s.StateProb = -0.5 }, "state_prob"},
		{"min injections", func(s *Spec) { s.MinInjections = MaxMinInjections + 1 }, "min_injections"},
		{"max runs", func(s *Spec) { s.MaxRuns = MaxRunsCeiling + 1 }, "max_runs"},
		{"workers", func(s *Spec) { s.Workers = MaxWorkers + 1 }, "workers"},
	}
	for _, tc := range cases {
		s := baseSpec(1)
		s.Canonicalize()
		tc.mutate(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: invalid spec accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}
