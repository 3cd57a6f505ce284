package harness

import (
	"sort"
	"testing"

	"repro/internal/control"
	"repro/internal/scaling"
)

// The detector registry is the single source of truth for detector names.
// Every enumeration of detectors elsewhere — the harness kinds and the
// scaling model's analytic subset — must agree with it, so a detector added
// in one place cannot silently be missing from another.
func TestDetectorRegistryComplete(t *testing.T) {
	reg := control.Names()

	var kinds []string
	for _, k := range AllDetectors() {
		kinds = append(kinds, string(k))
	}
	sort.Strings(kinds)
	if len(kinds) != len(reg) {
		t.Fatalf("harness.AllDetectors() has %d kinds, registry has %d: %v vs %v", len(kinds), len(reg), kinds, reg)
	}
	for i := range reg {
		if kinds[i] != reg[i] {
			t.Errorf("name %d: harness kind %q != registry name %q", i, kinds[i], reg[i])
		}
	}

	// Every registered name must construct without error (the registry
	// entry would otherwise be dead weight that no campaign can use).
	for _, n := range reg {
		if _, err := control.New(n, control.Spec{}); err != nil {
			t.Errorf("New(%q): %v", n, err)
		}
	}

	// The scaling model covers an analytic subset; each member must still be
	// a registered detector name.
	inReg := make(map[string]bool, len(reg))
	for _, n := range reg {
		inReg[n] = true
	}
	for _, d := range []scaling.Detector{scaling.Classic, scaling.LBDC, scaling.IBDC, scaling.Replication} {
		if !inReg[string(d)] {
			t.Errorf("scaling detector %q is not a registered detector name", d)
		}
	}
}

// The fixed-step detectors — the rows of FixedTable, with Classic as the
// unguarded "none" — live in the one registry: each must be a registered
// name and construct, or a fixed-step cell could name a detector that no
// campaign can build.
func TestFixedDetectorRegistryComplete(t *testing.T) {
	inReg := make(map[string]bool)
	for _, n := range control.Names() {
		inReg[n] = true
	}
	for _, k := range []DetectorKind{Classic, AID, HotRode} {
		if !inReg[string(k)] {
			t.Errorf("fixed-step detector %q is not a registered detector name", k)
			continue
		}
		if _, err := control.New(string(k), control.Spec{}); err != nil {
			t.Errorf("New(%q): %v", k, err)
		}
	}
}
