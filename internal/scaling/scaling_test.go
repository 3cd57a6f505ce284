package scaling

import "testing"

func TestFactor3(t *testing.T) {
	for _, p := range []int{1, 2, 8, 64, 512, 1000, 4096} {
		f := factor3(p)
		if f[0]*f[1]*f[2] != p {
			t.Fatalf("factor3(%d) = %v", p, f)
		}
		if f[0] < f[1] || f[1] < f[2] {
			t.Fatalf("factor3(%d) not ordered: %v", p, f)
		}
	}
	if f := factor3(64); f != [3]int{4, 4, 4} {
		t.Fatalf("factor3(64) = %v, want cube", f)
	}
	if f := factor3(512); f != [3]int{8, 8, 8} {
		t.Fatalf("factor3(512) = %v, want cube", f)
	}
}

// TestRunRejectsUnknownDetector covers every input Run refuses: an unknown
// detector, and core, step or stage counts no run can have.
func TestRunRejectsUnknownDetector(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"unknown detector", Config{Det: "nope", Cores: 2, Steps: 1}},
		{"zero cores", Config{Det: IBDC, Cores: 0, Steps: 1}},
		{"negative cores", Config{Det: IBDC, Cores: -5, Steps: 1}},
		{"zero steps", Config{Det: IBDC, Cores: 2, Steps: 0}},
		{"negative steps", Config{Det: Classic, Cores: 2, Steps: -1}},
		{"negative stages", Config{Det: LBDC, Cores: 2, Steps: 1, Stages: -3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if res, err := Run(tc.cfg); err == nil {
				t.Fatalf("Run(%+v) = %+v, want an error", tc.cfg, res)
			}
		})
	}
}

func TestClassicHasNoCheckCost(t *testing.T) {
	res, err := Run(Config{Det: Classic, Cores: 8, Steps: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckSeconds != 0 || res.DetectorBytes != 0 {
		t.Fatalf("classic check cost nonzero: %+v", res)
	}
	if res.StepSeconds <= 0 {
		t.Fatal("no step time recorded")
	}
}

func TestCheckMuchCheaperThanStep(t *testing.T) {
	for _, det := range []Detector{LBDC, IBDC} {
		res, err := Run(Config{Det: det, Cores: 64, Steps: 10})
		if err != nil {
			t.Fatal(err)
		}
		if res.CheckSeconds <= 0 {
			t.Fatalf("%s: no check time", det)
		}
		if ov := res.TimeOverheadPct(); ov > 20 {
			t.Fatalf("%s: time overhead %.1f%%, want small", det, ov)
		}
	}
}

func TestIBDCUsesLessMemoryThanLBDC(t *testing.T) {
	l, err := Run(Config{Det: LBDC, Cores: 8, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Det: IBDC, Cores: 8, Steps: 2})
	if err != nil {
		t.Fatal(err)
	}
	if b.DetectorBytes >= l.DetectorBytes {
		t.Fatalf("IBDC bytes %d >= LBDC bytes %d", b.DetectorBytes, l.DetectorBytes)
	}
	if l.MemOverheadPct() >= 100 {
		t.Fatalf("LBDC memory overhead %.1f%%, want < replication's 100%%", l.MemOverheadPct())
	}
}

func TestStepTimeDecreasesWithCores(t *testing.T) {
	small, err := Run(Config{Det: IBDC, Cores: 8, Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Run(Config{Det: IBDC, Cores: 64, Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if big.StepSeconds >= small.StepSeconds {
		t.Fatalf("no strong scaling: %g s at 8 cores vs %g s at 64", small.StepSeconds, big.StepSeconds)
	}
}

func TestOverheadTrendDecreasesWithCores(t *testing.T) {
	// Figure 3's shape: the relative time overhead shrinks as cores grow
	// (the step's non-parallelizable parts dominate at scale).
	lo, err := Run(Config{Det: IBDC, Cores: 16, Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Run(Config{Det: IBDC, Cores: 256, Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if hi.TimeOverheadPct() >= lo.TimeOverheadPct() {
		t.Fatalf("overhead did not decrease: %.2f%% at 16 -> %.2f%% at 256",
			lo.TimeOverheadPct(), hi.TimeOverheadPct())
	}
	if hi.MemOverheadPct() >= lo.MemOverheadPct() {
		t.Fatalf("memory overhead did not decrease: %.2f%% -> %.2f%%",
			lo.MemOverheadPct(), hi.MemOverheadPct())
	}
}

func TestFPRateChargesDetector(t *testing.T) {
	base, err := Run(Config{Det: IBDC, Cores: 8, Steps: 20, FPRate: 0})
	if err != nil {
		t.Fatal(err)
	}
	fp, err := Run(Config{Det: IBDC, Cores: 8, Steps: 20, FPRate: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if fp.CheckSeconds <= base.CheckSeconds {
		t.Fatalf("FP recomputation not charged: %g vs %g", fp.CheckSeconds, base.CheckSeconds)
	}
}

func TestReplicationScalingCost(t *testing.T) {
	rep, err := Run(Config{Det: Replication, Cores: 16, Steps: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Replication's check is a full step: time overhead ~100%, memory 100%.
	if ov := rep.TimeOverheadPct(); ov < 80 || ov > 120 {
		t.Fatalf("replication time overhead %.1f%%, want ~100", ov)
	}
	if ov := rep.MemOverheadPct(); ov != 100 {
		t.Fatalf("replication memory overhead %.1f%%, want 100", ov)
	}
}
