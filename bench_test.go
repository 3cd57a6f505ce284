// Benchmarks regenerating each table and figure of the paper at reduced
// injection counts (use cmd/sdcbench for full-scale runs). Custom metrics
// report the paper's headline numbers: detection rates in percent and
// overheads in percent, via b.ReportMetric.
package main

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/control"
	"repro/internal/dist"
	"repro/internal/harness"
	"repro/internal/implicit"
	"repro/internal/inject"
	"repro/internal/ode"
	"repro/internal/problems"
	"repro/internal/scaling"
)

func benchOptions() harness.Options {
	return harness.Options{Seed: 1, MinInjections: 400}
}

func benchProblem() *problems.Problem {
	p := problems.Burgers1D(128, "weno5")
	p.TEnd = 0.25
	return p
}

// BenchmarkTable1 regenerates Table I (classic controller FP/TP) and
// reports the Heun-Euler scaled-injection TPR.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := harness.Table1(io.Discard, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Method == "heun-euler" && c.Injector == "scaled" {
				b.ReportMetric(c.Result.Rates.TPR(), "TPR_he_scaled_%")
			}
		}
	}
}

// BenchmarkTable2 regenerates Table II (classic FNR, all vs significant).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, err := harness.Table2(io.Discard, benchOptions(), nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Method == "dormand-prince" && c.Injector == "scaled" {
				b.ReportMetric(c.Result.Rates.SFNR(), "SFNR_dp_scaled_%")
			}
		}
	}
}

// BenchmarkTable3 regenerates Table III (detector comparison, Heun-Euler)
// with the paper's §V-D state-corruption scenario included.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Table3(io.Discard, benchOptions(), ode.HeunEuler(), 0.01)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res[harness.Classic].Rates.SFNR(), "SFNR_classic_%")
		b.ReportMetric(res[harness.IBDC].Rates.SFNR(), "SFNR_ibdc_%")
		b.ReportMetric(res[harness.Replication].Rates.TPR(), "TPR_replication_%")
	}
}

// BenchmarkTable3BS runs the detector comparison on Bogacki-Shampine under
// pure stage injection, where the classic controller's blindness is large.
func BenchmarkTable3BS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.Table3(io.Discard, benchOptions(), ode.BogackiShampine(), 0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res[harness.Classic].Rates.SFNR(), "SFNR_classic_%")
		b.ReportMetric(res[harness.LBDC].Rates.SFNR(), "SFNR_lbdc_%")
		b.ReportMetric(res[harness.IBDC].Rates.SFNR(), "SFNR_ibdc_%")
	}
}

// BenchmarkTable4 regenerates Table IV (memory and compute overheads).
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		oh, err := harness.Table4(io.Discard, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(oh[harness.IBDC].MemoryPct, "mem_ibdc_%")
		b.ReportMetric(oh[harness.IBDC].ComputePct, "compute_ibdc_%")
		b.ReportMetric(oh[harness.Replication].MemoryPct, "mem_replication_%")
	}
}

// BenchmarkTable5 regenerates Table V (simulated step vs double-check time
// at 512 and 4096 cores).
func BenchmarkTable5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, cores := range []int{512, 4096} {
			res, err := scaling.Run(scaling.Config{Det: scaling.IBDC, Cores: cores, Steps: 20, FPRate: 0.03})
			if err != nil {
				b.Fatal(err)
			}
			if cores == 4096 {
				b.ReportMetric(res.TimeOverheadPct(), "time_ov_4096_%")
			}
		}
	}
}

// BenchmarkFig2 integrates the rising thermal bubble for a short window
// (the figure's full 200 s run lives in cmd/sdcbench -exp fig2).
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := problems.Bubble2D(24, "weno5", 10)
		in := &ode.Integrator{Tab: ode.BogackiShampine(), Ctrl: control.DefaultController(p.TolA, p.TolR), MaxStep: p.MaxStep}
		in.Init(p.Sys, p.T0, p.TEnd, p.X0, p.H0)
		if _, err := in.Run(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(in.Stats.Steps), "steps")
	}
}

// BenchmarkFig3 regenerates Figure 3's overhead-vs-cores series.
func BenchmarkFig3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var first, last float64
		for _, cores := range []int{64, 512, 4096} {
			res, err := scaling.Run(scaling.Config{Det: scaling.LBDC, Cores: cores, Steps: 10, FPRate: 0.03})
			if err != nil {
				b.Fatal(err)
			}
			if cores == 64 {
				first = res.TimeOverheadPct()
			}
			last = res.TimeOverheadPct()
		}
		b.ReportMetric(first, "time_ov_64_%")
		b.ReportMetric(last, "time_ov_4096_%")
	}
}

// BenchmarkAblationOrderAdaptation compares Algorithm 1 against pinned
// orders (the design choice DESIGN.md calls out).
func BenchmarkAblationOrderAdaptation(b *testing.B) {
	p := benchProblem()
	for i := 0; i < b.N; i++ {
		adaptive, err := harness.Run(harness.Config{Problem: p, Tab: ode.HeunEuler(), Injector: inject.Scaled{},
			Detector: harness.LBDC, Seed: 5, MinInjections: 300})
		if err != nil {
			b.Fatal(err)
		}
		pinned, err := harness.Run(harness.Config{Problem: p, Tab: ode.HeunEuler(), Injector: inject.Scaled{},
			Detector: harness.LBDC, Seed: 5, MinInjections: 300, NoAdapt: true, FixedOrder: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(adaptive.Rates.FPR(), "FPR_adaptive_%")
		b.ReportMetric(pinned.Rates.FPR(), "FPR_pinned_q1_%")
	}
}

// BenchmarkAblationFSAL measures the cost of disabling the first-same-as-
// last reuse that makes IBDC free on accepted steps (§V-B).
func BenchmarkAblationFSAL(b *testing.B) {
	p := benchProblem()
	for i := 0; i < b.N; i++ {
		with, err := harness.Run(harness.Config{Problem: p, Tab: ode.HeunEuler(), Injector: inject.Scaled{},
			Detector: harness.IBDC, Seed: 5, MinInjections: 200})
		if err != nil {
			b.Fatal(err)
		}
		without, err := harness.Run(harness.Config{Problem: p, Tab: ode.HeunEuler(), Injector: inject.Scaled{},
			Detector: harness.IBDC, Seed: 5, MinInjections: 200, NoReuseFirstStage: true})
		if err != nil {
			b.Fatal(err)
		}
		evalsPerStepWith := float64(with.Evals) / float64(with.Steps)
		evalsPerStepWithout := float64(without.Evals) / float64(without.Steps)
		b.ReportMetric(evalsPerStepWith, "evals_per_step_reuse")
		b.ReportMetric(evalsPerStepWithout, "evals_per_step_noreuse")
	}
}

// BenchmarkAblationNorm compares the WRMS(2) controller norm against the
// max norm.
func BenchmarkAblationNorm(b *testing.B) {
	p := benchProblem()
	for i := 0; i < b.N; i++ {
		wrms, err := harness.Run(harness.Config{Problem: p, Tab: ode.HeunEuler(), Injector: inject.Scaled{},
			Detector: harness.Classic, Seed: 5, MinInjections: 300})
		if err != nil {
			b.Fatal(err)
		}
		maxn, err := harness.Run(harness.Config{Problem: p, Tab: ode.HeunEuler(), Injector: inject.Scaled{},
			Detector: harness.Classic, Seed: 5, MinInjections: 300, MaxNorm: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(wrms.Rates.TPR(), "TPR_wrms_%")
		b.ReportMetric(maxn.Rates.TPR(), "TPR_max_%")
	}
}

// BenchmarkAblationScheme compares WENO5 against CRWENO5 right-hand sides.
func BenchmarkAblationScheme(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, scheme := range []string{"weno5", "crweno5-periodic"} {
			p := problems.Burgers1D(128, scheme)
			p.TEnd = 0.25
			res, err := harness.Run(harness.Config{Problem: p, Tab: ode.HeunEuler(), Injector: inject.Scaled{},
				Detector: harness.Classic, Seed: 5, MinInjections: 200})
			if err != nil {
				b.Fatal(err)
			}
			if scheme == "weno5" {
				b.ReportMetric(res.Rates.TPR(), "TPR_weno5_%")
			} else {
				b.ReportMetric(res.Rates.TPR(), "TPR_crweno5_%")
			}
		}
	}
}

// BenchmarkCampaignWorkers runs one campaign cell on the serial reference
// engine and on the parallel engine, reporting the measured wall-clock
// speedup (CPUSeconds / WallSeconds). The rates are bitwise identical across
// sub-benchmarks; only the timing differs.
func BenchmarkCampaignWorkers(b *testing.B) {
	p := benchProblem()
	for _, w := range []int{1, 2, 0} {
		name := fmt.Sprintf("workers=%d", w)
		if w == 0 {
			name = "workers=all"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := harness.Run(harness.Config{Problem: p, Tab: ode.HeunEuler(), Injector: inject.Scaled{},
					Detector: harness.IBDC, Seed: 7, MinInjections: 300, Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Speedup, "speedup_x")
				b.ReportMetric(res.Rates.TPR(), "TPR_%")
			}
		})
	}
}

// BenchmarkDistributedAdaptive runs the full distributed adaptive pipeline
// with IBDC on the simulated cluster: one ode.Integrator per rank, its norms
// finished by Allreduce.
func BenchmarkDistributedAdaptive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := dist.RunAdaptiveBurgers(dist.AdaptiveConfig{Ranks: 4, N: 128, TEnd: 0.02, IBDC: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Steps), "steps")
		b.ReportMetric(res.Seconds*1e3, "sim_ms")
	}
}

// BenchmarkImplicitSolvers compares the two implicit methods on the stiff
// Van der Pol oscillator (paper future work), each driven by the shared
// protected-step loop.
func BenchmarkImplicitSolvers(b *testing.B) {
	p := problems.VanDerPol(1000)
	for _, m := range []struct {
		name   string
		method func() ode.Method
	}{
		{"sdirk2", func() ode.Method { return &implicit.SDIRK2{} }},
		{"bdf2", func() ode.Method { return &implicit.BDF2{} }},
	} {
		b.Run(m.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				in := &ode.Integrator{Method: m.method(), Ctrl: control.DefaultController(1e-5, 1e-5)}
				in.Init(p.Sys, 0, 100, p.X0, 1e-4)
				if _, err := in.Run(); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(in.Stats.Steps), "steps")
			}
		})
	}
}

// BenchmarkFixedDetectors measures the related-work detectors in
// fixed-step cells.
func BenchmarkFixedDetectors(b *testing.B) {
	for _, det := range []harness.DetectorKind{harness.AID, harness.HotRode} {
		b.Run(string(det), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := harness.Run(harness.Config{
					Problem:       problems.Oscillator(),
					Tab:           ode.HeunEuler(),
					Injector:      inject.Scaled{},
					Detector:      det,
					Seed:          3,
					MinInjections: 300,
					Workers:       1,
					FixedStep:     true,
				})
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Rates.TPR(), "TPR_%")
			}
		})
	}
}

// BenchmarkDistributedEuler2D runs the bitwise-validated distributed 2-D
// Euler solve on the simulated cluster.
func BenchmarkDistributedEuler2D(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := dist.RunEuler2D(dist.Euler2DConfig{Ranks: 4, N: 48, Steps: 5, H: 0.002})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Seconds*1e3, "sim_ms")
	}
}
