package harness

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/control"
	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/la"
	"repro/internal/ode"
	"repro/internal/problems"
	"repro/internal/xrand"
)

// tableWorkload is the small, fast workload used throughout these tests:
// pre-shock WENO5 Burgers with CFL-capped stepping.
func tableWorkload() *problems.Problem {
	p := problems.Burgers1D(64, "weno5")
	p.TEnd = 0.25
	return p
}

func TestRunRequiresConfig(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("expected error for empty config")
	}
}

func TestRunUnknownDetector(t *testing.T) {
	_, err := Run(Config{Problem: tableWorkload(), Tab: ode.HeunEuler(), Injector: inject.Scaled{}, Detector: "bogus", MinInjections: 1, MaxRuns: 1})
	if err == nil {
		t.Fatal("expected error for unknown detector")
	}
}

func TestRunReachesMinInjections(t *testing.T) {
	res, err := Run(Config{Problem: tableWorkload(), Tab: ode.HeunEuler(), Injector: inject.Scaled{}, Detector: Classic, Seed: 1, MinInjections: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rates.Injections < 100 {
		t.Fatalf("only %d injections", res.Rates.Injections)
	}
	if res.Rates.CleanTrials == 0 || res.Rates.CorruptTrials == 0 {
		t.Fatalf("degenerate rates: %+v", res.Rates)
	}
	if res.Evals == 0 || res.Steps == 0 {
		t.Fatalf("missing counters: %+v", res)
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	cfg := Config{Problem: tableWorkload(), Tab: ode.HeunEuler(), Injector: inject.SingleBit{}, Detector: Classic, Seed: 42, MinInjections: 50}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rates != b.Rates {
		t.Fatalf("same seed, different rates:\n%+v\n%+v", a.Rates, b.Rates)
	}
}

func TestRatesArithmetic(t *testing.T) {
	r := Rates{CleanTrials: 200, CleanRejected: 2, CorruptTrials: 100, CorruptRejected: 40, SigTrials: 50, SigAccepted: 5}
	if r.FPR() != 1 || r.TPR() != 40 || r.FNR() != 60 || r.SFNR() != 10 {
		t.Fatalf("rates wrong: %s", r.String())
	}
	var sum Rates
	sum.Add(r)
	sum.Add(r)
	if sum.CorruptTrials != 200 || sum.TPR() != 40 {
		t.Fatalf("Add wrong: %+v", sum)
	}
	empty := Rates{}
	if empty.FPR() != 0 || empty.SFNR() != 0 {
		t.Fatal("empty rates should be 0")
	}
}

func TestDetectorComparisonShape(t *testing.T) {
	// The paper's core result at mini scale: guarded detectors reduce the
	// significant false negatives left by the classic controller, and
	// replication catches everything (Table III's ordering).
	p := tableWorkload()
	results := map[DetectorKind]*Result{}
	for _, det := range []DetectorKind{Classic, LBDC, IBDC, Replication} {
		res, err := Run(Config{Problem: p, Tab: ode.HeunEuler(), Injector: inject.Scaled{}, Detector: det,
			Seed: 7, MinInjections: 300, StateProb: 0.01})
		if err != nil {
			t.Fatalf("%s: %v", det, err)
		}
		results[det] = res
	}
	if tpr := results[Replication].Rates.TPR(); tpr < 99 {
		t.Errorf("replication TPR = %.1f, want ~100", tpr)
	}
	if results[LBDC].Rates.SFNR() > results[Classic].Rates.SFNR() {
		t.Errorf("LBDC SFNR %.1f worse than classic %.1f",
			results[LBDC].Rates.SFNR(), results[Classic].Rates.SFNR())
	}
	if results[IBDC].Rates.SFNR() > results[Classic].Rates.SFNR() {
		t.Errorf("IBDC SFNR %.1f worse than classic %.1f",
			results[IBDC].Rates.SFNR(), results[Classic].Rates.SFNR())
	}
}

func TestMeasureOverheads(t *testing.T) {
	oh, res, err := MeasureOverheads(Config{Problem: tableWorkload(), Tab: ode.HeunEuler(), Injector: inject.Scaled{},
		Detector: IBDC, Seed: 5, MinInjections: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rates.Injections < 100 {
		t.Fatal("vacuous")
	}
	// IBDC memory: a few vectors against N_k+2 = 4; far below replication's
	// +100%.
	if oh.MemoryPct <= 0 || oh.MemoryPct >= 100 {
		t.Errorf("IBDC memory overhead %.1f%%, want in (0, 100)", oh.MemoryPct)
	}
	// Compute overhead bounded well below replication.
	if oh.ComputePct > 60 {
		t.Errorf("IBDC compute overhead %.1f%%, want well below replication's 100%%", oh.ComputePct)
	}
}

func TestReplicationOverheadAbove100(t *testing.T) {
	oh, _, err := MeasureOverheads(Config{Problem: tableWorkload(), Tab: ode.HeunEuler(), Injector: inject.Scaled{},
		Detector: Replication, Seed: 5, MinInjections: 100})
	if err != nil {
		t.Fatal(err)
	}
	if oh.MemoryPct != 100 {
		t.Errorf("replication memory overhead %.1f%%, want 100", oh.MemoryPct)
	}
	if oh.ComputePct < 60 {
		t.Errorf("replication compute overhead %.1f%%, want ~100", oh.ComputePct)
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "T", Headers: []string{"a", "bb"}}
	tb.AddRowf("x", 1.25)
	tb.AddRow("yy", "z")
	var buf bytes.Buffer
	tb.Render(&buf)
	out := buf.String()
	for _, want := range []string{"T", "a", "bb", "x", "1.2", "yy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestOverheadsString(t *testing.T) {
	o := Overheads{MemoryPct: 50, ComputePct: 2.5, WallPct: 3}
	if s := o.String(); !strings.Contains(s, "50.0") || !strings.Contains(s, "2.5") {
		t.Fatalf("Overheads.String = %q", s)
	}
}

func TestStateInjectionBlindnessCaught(t *testing.T) {
	// §V-D: under pure state corruption, the double-checks leave (near) no
	// significant false negatives.
	p := tableWorkload()
	res, err := Run(Config{Problem: p, Tab: ode.HeunEuler(), Injector: inject.Scaled{}, Detector: IBDC,
		Seed: 11, MinInjections: 200, InjectProb: 1e-12, StateProb: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rates.SigTrials == 0 {
		t.Fatal("vacuous: no significant corruptions")
	}
	if res.Rates.SFNR() > 5 {
		t.Fatalf("IBDC SFNR under state corruption = %.1f%%, want ~0", res.Rates.SFNR())
	}
}

func TestFixedOrderPin(t *testing.T) {
	p := tableWorkload()
	res, err := Run(Config{Problem: p, Tab: ode.HeunEuler(), Injector: inject.Scaled{}, Detector: LBDC,
		Seed: 13, MinInjections: 50, NoAdapt: true, FixedOrder: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanOrder < 1.9 || res.MeanOrder > 2.0 {
		t.Fatalf("pinned order not respected: mean %.2f, want 2", res.MeanOrder)
	}
}

func TestCleanRun(t *testing.T) {
	evals, wall, err := CleanRun(tableWorkload(), ode.HeunEuler())
	if err != nil {
		t.Fatal(err)
	}
	if evals == 0 || wall <= 0 {
		t.Fatalf("evals=%d wall=%g", evals, wall)
	}
}

func TestRateIntervals(t *testing.T) {
	r := Rates{CleanTrials: 1000, CleanRejected: 100, CorruptTrials: 500, CorruptRejected: 250,
		SigTrials: 200, SigAccepted: 20}
	fpr := r.FPRInterval()
	if fpr.Pct != 10 || fpr.LoPct >= 10 || fpr.HiPct <= 10 {
		t.Fatalf("FPR interval %v", fpr)
	}
	if tpr := r.TPRInterval(); tpr.Pct != 50 {
		t.Fatalf("TPR interval %v", tpr)
	}
	if s := r.SFNRInterval(); s.Pct != 10 {
		t.Fatalf("SFNR interval %v", s)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	cfg := Config{Problem: tableWorkload(), Tab: ode.HeunEuler(), Injector: inject.Scaled{}, Detector: IBDC, Seed: 9, MinInjections: 30}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReport(cfg, res)
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Detector != "ibdc" || back.Rates != res.Rates || back.Method != "heun-euler" {
		t.Fatalf("round trip mismatch: %+v", back)
	}
}

func TestOracleDetectorIsIdeal(t *testing.T) {
	res, err := Run(Config{Problem: tableWorkload(), Tab: ode.BogackiShampine(), Injector: inject.Scaled{},
		Detector: Oracle, Seed: 21, MinInjections: 300})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rates.SigTrials == 0 {
		t.Fatal("vacuous")
	}
	if sfnr := res.Rates.SFNR(); sfnr > 1e-9 {
		t.Fatalf("oracle SFNR = %g, want 0", sfnr)
	}
	if fpr := res.Rates.FPR(); fpr > 1e-9 {
		t.Fatalf("oracle FPR = %g, want 0", fpr)
	}
}

func TestEndToEndBubbleProtection(t *testing.T) {
	if testing.Short() {
		t.Skip("PDE-scale end-to-end test")
	}
	// The headline, end to end at PDE scale: integrate the bubble under
	// continuous SDC injection with and without IBDC and compare both
	// against the clean trajectory.
	p := problems.Bubble2D(20, "weno5", 15)
	clean := &ode.Integrator{Tab: ode.BogackiShampine(), Ctrl: control.DefaultController(p.TolA, p.TolR), MaxStep: p.MaxStep}
	clean.Init(p.Sys, p.T0, p.TEnd, p.X0, p.H0)
	if _, err := clean.Run(); err != nil {
		t.Fatal(err)
	}
	ref := clean.X().Clone()

	run := func(guard bool) (la.Vec, *ode.Stats) {
		plan := inject.NewPlan(xrand.New(1234), inject.Scaled{})
		plan.Prob = 0.01
		in := &ode.Integrator{Tab: ode.BogackiShampine(), Ctrl: control.DefaultController(p.TolA, p.TolR),
			MaxStep: p.MaxStep, Hook: plan.Hook}
		if guard {
			in.Validator = core.NewIBDC()
		}
		in.Init(p.Sys, p.T0, p.TEnd, p.X0, p.H0)
		if _, err := in.Run(); err != nil {
			t.Logf("guard=%v: run failed: %v", guard, err)
			return nil, &in.Stats
		}
		return in.X().Clone(), &in.Stats
	}
	unguarded, _ := run(false)
	guarded, gStats := run(true)
	if guarded == nil {
		t.Fatal("guarded run failed")
	}

	rms := func(x la.Vec) float64 {
		if x == nil {
			return math.Inf(1)
		}
		var s float64
		for i := range x {
			d := x[i] - ref[i]
			s += d * d
		}
		return math.Sqrt(s / float64(len(x)))
	}
	eU, eG := rms(unguarded), rms(guarded)
	t.Logf("deviation from clean trajectory: unguarded %.3e, IBDC-guarded %.3e (rejections %d, rescues %d)",
		eU, eG, gStats.RejectedValidator, gStats.FPRescues)
	if eG > eU {
		t.Fatalf("guarded run (%.3e) deviates more than unguarded (%.3e)", eG, eU)
	}
	// The guarded trajectory must stay physically sane.
	if guarded.HasNaNOrInf() {
		t.Fatal("guarded trajectory corrupted")
	}
}

func TestRunReplicatedSeedRobustness(t *testing.T) {
	rep, err := RunReplicated(Config{Problem: tableWorkload(), Tab: ode.HeunEuler(), Injector: inject.Scaled{},
		Detector: Classic, Seed: 1, MinInjections: 200}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 3 {
		t.Fatalf("replicas = %d", len(rep.Results))
	}
	if rep.TPRMean <= 0 {
		t.Fatal("degenerate TPR mean")
	}
	// Seed-to-seed TPR scatter should be small relative to the mean.
	if rep.TPRStd > rep.TPRMean {
		t.Fatalf("TPR unstable across seeds: %.1f +- %.1f", rep.TPRMean, rep.TPRStd)
	}
}
