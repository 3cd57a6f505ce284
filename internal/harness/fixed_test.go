package harness

import (
	"math"
	"testing"

	"repro/internal/inject"
	"repro/internal/ode"
	"repro/internal/problems"
	"repro/internal/xrand"
)

// fixedCell is a fixed-step campaign cell on the oscillator.
func fixedCell(det DetectorKind, seed uint64, minInj int) Config {
	return Config{Problem: problems.Oscillator(), Tab: ode.HeunEuler(), Injector: inject.Scaled{},
		Detector: det, Seed: seed, MinInjections: minInj, FixedStep: true}
}

func TestFixedStepRequiresConfig(t *testing.T) {
	if _, err := Run(Config{FixedStep: true}); err == nil {
		t.Fatal("expected error")
	}
}

func TestFixedStepUnknownDetector(t *testing.T) {
	cfg := fixedCell("bogus", 0, 1)
	cfg.MaxRuns = 1
	if _, err := Run(cfg); err == nil {
		t.Fatal("expected error")
	}
}

func TestFixedStepBaselineRates(t *testing.T) {
	// Without a detector nothing is rejected.
	res, err := Run(fixedCell(Classic, 1, 200))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rates.Injections < 200 || res.Rates.CorruptRejected != 0 || res.Rates.CleanRejected != 0 {
		t.Fatalf("baseline rates wrong: %s", res.Rates.String())
	}
	if res.Rates.SigTrials == 0 {
		t.Fatal("no significant corruptions classified")
	}
}

func TestFixedStepAIDImprovesOverNone(t *testing.T) {
	base, err := Run(fixedCell(Classic, 3, 400))
	if err != nil {
		t.Fatal(err)
	}
	aid, err := Run(fixedCell(AID, 3, 400))
	if err != nil {
		t.Fatal(err)
	}
	if aid.Rates.TPR() <= base.Rates.TPR() {
		t.Fatalf("AID TPR %.1f did not improve on baseline %.1f", aid.Rates.TPR(), base.Rates.TPR())
	}
	if aid.Rates.SFNR() > base.Rates.SFNR() {
		t.Fatalf("AID SFNR %.1f worse than baseline %.1f", aid.Rates.SFNR(), base.Rates.SFNR())
	}
}

func TestFixedStepHotRodeDetects(t *testing.T) {
	hr, err := Run(fixedCell(HotRode, 5, 400))
	if err != nil {
		t.Fatal(err)
	}
	if hr.Rates.TPR() == 0 {
		t.Fatal("Hot Rode never detected anything")
	}
	// Its threshold calibration must keep false positives moderate.
	if hr.Rates.FPR() > 20 {
		t.Fatalf("Hot Rode FPR %.1f%% too high", hr.Rates.FPR())
	}
}

func TestFixedStepCustomProbability(t *testing.T) {
	cfg := fixedCell(Classic, 2, 100)
	cfg.InjectProb, cfg.MaxRuns = 0.1, 5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// At 10x the default probability, 100 injections need far fewer trials.
	frac := float64(res.Rates.Injections) / float64(res.Rates.CorruptTrials+res.Rates.CleanTrials)
	if frac < 0.05 {
		t.Fatalf("injection density %.3f, want ~0.1-ish", frac)
	}
}

// nanInjector replaces the corrupted component with NaN.
type nanInjector struct{}

func (nanInjector) Name() string                        { return "nan" }
func (nanInjector) Corrupt(*xrand.RNG, float64) float64 { return math.NaN() }

// TestFixedStepNaNProposalIsSignificant pins the fixed-step ground truth on
// non-finite proposals. An unguarded fixed-step cell accepts a NaN stage and
// carries the NaN state to the end of the run; every corrupted trial then
// proposes NaN, which the deviation test alone would skip as 0.
func TestFixedStepNaNProposalIsSignificant(t *testing.T) {
	cfg := fixedCell(Classic, 1, 40)
	cfg.Injector = nanInjector{}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Rates
	if r.CorruptTrials == 0 || r.SigTrials != r.CorruptTrials || r.SigAccepted != r.SigTrials {
		t.Fatalf("rates %s: every NaN proposal must be significant and, unguarded, accepted", r.String())
	}
}

// TestFixedStepHoldsH0 pins the constant step: every trial runs at H0 but
// the last, which shortens to land on TEnd when the span is not a multiple
// of H0.
func TestFixedStepHoldsH0(t *testing.T) {
	cfg := fixedCell(HotRode, 7, 1)
	cfg.Problem.TEnd = 1.005
	cfg.MaxRuns, cfg.Trace = 1, true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	events := res.Trace.Events()
	if res.Steps != 101 || len(events) == 0 {
		t.Fatalf("%d steps, %d events; want 101 steps", res.Steps, len(events))
	}
	for _, ev := range events[:len(events)-1] {
		if ev.H != cfg.Problem.H0 {
			t.Fatalf("step %d attempt %d ran at h = %g, want %g", ev.Step, ev.Attempt, ev.H, cfg.Problem.H0)
		}
	}
	last := events[len(events)-1]
	if last.Step != 100 || math.Abs(last.T+last.H-1.005) > 1e-12 {
		t.Fatalf("last step %d at t = %g with h = %g, want step 100 ending on 1.005", last.Step, last.T, last.H)
	}
}
