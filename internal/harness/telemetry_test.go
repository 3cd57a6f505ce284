package harness

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/inject"
	"repro/internal/ode"
	"repro/internal/telemetry"
)

func tracedConfig(det DetectorKind, workers int) Config {
	return Config{
		Problem:       fastProblem(),
		Tab:           ode.HeunEuler(),
		Injector:      inject.Scaled{},
		Detector:      det,
		Seed:          7,
		MinInjections: 40,
		Workers:       workers,
		Trace:         true,
		TraceCap:      1 << 18,
		Metrics:       true,
	}
}

// TestTelemetryChangesNoResultByte is the tentpole's differential guarantee:
// enabling the tracer and the metrics registry alters no byte of the
// campaign's canonical result, for every worker count.
func TestTelemetryChangesNoResultByte(t *testing.T) {
	for _, det := range []DetectorKind{Classic, IBDC, LBDC} {
		plain := tracedConfig(det, 1)
		plain.Trace, plain.Metrics = false, false
		base, err := Run(plain)
		if err != nil {
			t.Fatalf("%s baseline: %v", det, err)
		}
		want := base.Canonical()
		for _, w := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			t.Run(fmt.Sprintf("%s/workers=%d", det, w), func(t *testing.T) {
				res, err := Run(tracedConfig(det, w))
				if err != nil {
					t.Fatal(err)
				}
				if got := res.Canonical(); got != want {
					t.Errorf("telemetry-enabled run diverges:\ngot  %+v\nwant %+v", got, want)
				}
			})
		}
	}
}

// TestTraceWorkerCountInvariant: the merged trace (and the deterministic
// portion of the metrics) must be identical for every worker count, event
// for event.
func TestTraceWorkerCountInvariant(t *testing.T) {
	ref, err := Run(tracedConfig(IBDC, 1))
	if err != nil {
		t.Fatal(err)
	}
	refEvents := ref.Trace.Events()
	refSnap := ref.Metrics.Snapshot().WithoutTimings()
	for _, w := range []int{4, runtime.GOMAXPROCS(0)} {
		res, err := Run(tracedConfig(IBDC, w))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		events := res.Trace.Events()
		if len(events) != len(refEvents) {
			t.Fatalf("workers=%d: %d trace events, serial had %d", w, len(events), len(refEvents))
		}
		for i := range events {
			if events[i] != refEvents[i] {
				t.Fatalf("workers=%d: trace diverges at event %d:\ngot  %+v\nwant %+v",
					w, i, events[i], refEvents[i])
			}
		}
		if snap := res.Metrics.Snapshot().WithoutTimings(); !snapshotEqual(snap, refSnap) {
			t.Errorf("workers=%d: deterministic metrics diverge:\ngot  %+v\nwant %+v", w, snap, refSnap)
		}
	}
}

func snapshotEqual(a, b telemetry.Snapshot) bool {
	if len(a.Counters) != len(b.Counters) || len(a.Gauges) != len(b.Gauges) || len(a.Histograms) != len(b.Histograms) {
		return false
	}
	for k, v := range a.Counters {
		if b.Counters[k] != v {
			return false
		}
	}
	for k, v := range a.Gauges {
		if b.Gauges[k] != v {
			return false
		}
	}
	for k, v := range a.Histograms {
		bh, ok := b.Histograms[k]
		if !ok || bh.Count != v.Count || bh.Sum != v.Sum || len(bh.Buckets) != len(v.Buckets) {
			return false
		}
		for i := range v.Buckets {
			if bh.Buckets[i] != v.Buckets[i] {
				return false
			}
		}
	}
	return true
}

// TestTraceMatchesCampaignAccounting cross-checks the trace against the
// result's aggregate counters: with no ring drops, the event count equals
// the campaign's trial count, the per-verdict totals match the Stats-derived
// metrics, the silent-FN events match Rates.SigAccepted, and — the paper's
// Table II acceptance criterion — every silently accepted significant trial
// shows a classic scaled LTE within tolerance, which is exactly why the
// classic controller misses it.
func TestTraceMatchesCampaignAccounting(t *testing.T) {
	for _, det := range []DetectorKind{Classic, IBDC} {
		res, err := Run(tracedConfig(det, 4))
		if err != nil {
			t.Fatalf("%s: %v", det, err)
		}
		if res.Trace.Dropped() != 0 {
			t.Fatalf("%s: ring dropped %d events; raise TraceCap", det, res.Trace.Dropped())
		}
		if got := res.Trace.Len(); got != res.TrialSteps {
			t.Errorf("%s: %d trace events, result counted %d trials", det, got, res.TrialSteps)
		}

		var silentFNs, validatorRejects, fpRescues int64
		res.Trace.Do(func(e *telemetry.StepEvent) {
			if string(det) != e.Detector {
				t.Fatalf("event stamped %q, campaign detector is %q", e.Detector, det)
			}
			if e.SilentFN() {
				silentFNs++
				if !(e.SErr1 <= 1.0) {
					t.Errorf("%s: silently accepted significant trial has SErr1=%g > 1 — the classic test should have caught it", det, e.SErr1)
				}
			}
			if e.Corrupted() && e.Significant == telemetry.SigUnknown {
				t.Errorf("%s: corrupted trial carries no ground-truth significance: %+v", det, *e)
			}
			switch e.Verdict {
			case telemetry.VerdictValidatorReject:
				validatorRejects++
			case telemetry.VerdictFPRescue:
				fpRescues++
			}
		})
		if silentFNs != int64(res.Rates.SigAccepted) {
			t.Errorf("%s: %d silent-FN events, Rates.SigAccepted = %d", det, silentFNs, res.Rates.SigAccepted)
		}
		if got := res.Metrics.Counter(MRejectedValidator).Value(); got != validatorRejects {
			t.Errorf("%s: metrics count %d validator rejections, trace has %d", det, got, validatorRejects)
		}
		if got := res.Metrics.Counter(MFPRescues).Value(); got != fpRescues {
			t.Errorf("%s: metrics count %d FP rescues, trace has %d", det, got, fpRescues)
		}
		if got := res.Metrics.Counter(MTrialSteps).Value(); got != int64(res.TrialSteps) {
			t.Errorf("%s: metrics count %d trials, result has %d", det, got, res.TrialSteps)
		}
		if got := res.Metrics.Counter(MRHSEvals).Value(); got != res.Evals {
			t.Errorf("%s: metrics count %d evals, result has %d", det, got, res.Evals)
		}
		h := res.Metrics.Histogram(MStepSize, nil)
		if h.Count() != int64(res.Steps) {
			t.Errorf("%s: step-size histogram has %d observations, result accepted %d steps", det, h.Count(), res.Steps)
		}
	}
}

// TestDisabledTracerAddsNoAllocations is the zero-cost-when-disabled
// guarantee: steady-state stepping with a nil Tracer must not allocate.
func TestDisabledTracerAddsNoAllocations(t *testing.T) {
	p := fastProblem()
	in := &ode.Integrator{Tab: ode.HeunEuler(), Ctrl: ode.DefaultController(p.TolA, p.TolR)}
	in.Init(p.Sys, 0, 1e9, p.X0.Clone(), p.H0)
	// Warm up: the first steps grow History's storage to steady state.
	for i := 0; i < 200; i++ {
		if err := in.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(500, func() {
		if err := in.Step(); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("steady-state Step with nil Tracer allocates %.1f times per step, want 0", avg)
	}
}

// TestTracerAddsNoAllocationsOnGuardedPath extends the guard to the
// validator path: the IBDC estimate carries its Fornberg workspace, so the
// warm guarded step allocates nothing, untraced or with a saturated ring
// recorder attached.
func TestTracerAddsNoAllocationsOnGuardedPath(t *testing.T) {
	p := fastProblem()
	measure := func(tr telemetry.Tracer) float64 {
		in := &ode.Integrator{
			Tab:       ode.HeunEuler(),
			Ctrl:      ode.DefaultController(p.TolA, p.TolR),
			Validator: core.NewIBDC(),
			OnTrial:   func(*ode.Trial) {},
			Tracer:    tr,
		}
		in.Init(p.Sys, 0, 1e9, p.X0.Clone(), p.H0)
		// Warm up past History growth and the recorder's ring growth (a
		// 64-event ring is fully grown after its first 64 events).
		for i := 0; i < 200; i++ {
			if err := in.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(500, func() {
			if err := in.Step(); err != nil {
				t.Fatal(err)
			}
		})
	}
	if n := measure(nil); n != 0 {
		t.Errorf("untraced guarded step allocates %.2f times per step, want 0", n)
	}
	if n := measure(telemetry.NewRecorder(64)); n != 0 {
		t.Errorf("traced guarded step allocates %.2f times per step, want 0", n)
	}
}
