package scaling

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenConfigs lists the configurations run.golden pins: every call that
// sdcbench's table5 and fig3, cmd/scaling's default sweep and the root
// BenchmarkTable5 and BenchmarkFig3 make (Stages left at 0 where they
// leave it), then odd, prime and non-cubic core counts for every detector
// at two (steps, stages, FP rate) settings.
func goldenConfigs() []Config {
	var cs []Config
	for _, cores := range []int{512, 4096} { // sdcbench -exp table5
		for _, det := range []Detector{Classic, LBDC, IBDC} {
			cs = append(cs, Config{Det: det, Cores: cores, Steps: 100, FPRate: 0.03})
		}
	}
	sweep := []int{64, 128, 256, 512, 1024, 2048, 4096}
	for _, cores := range sweep { // sdcbench -exp fig3
		for _, det := range []Detector{LBDC, IBDC} {
			cs = append(cs, Config{Det: det, Cores: cores, Steps: 50, FPRate: 0.03})
		}
	}
	for _, cores := range sweep { // cmd/scaling with its default flags
		cs = append(cs, Config{Det: IBDC, Cores: cores, Steps: 50, FPRate: 0.03, Stages: 2})
	}
	for _, cores := range []int{512, 4096} { // BenchmarkTable5
		cs = append(cs, Config{Det: IBDC, Cores: cores, Steps: 20, FPRate: 0.03})
	}
	for _, cores := range []int{64, 512, 4096} { // BenchmarkFig3
		cs = append(cs, Config{Det: LBDC, Cores: cores, Steps: 10, FPRate: 0.03})
	}
	for _, cores := range []int{1, 2, 3, 5, 6, 8, 12, 27, 96, 1000} {
		for _, det := range []Detector{Classic, LBDC, IBDC, Replication} {
			cs = append(cs,
				Config{Det: det, Cores: cores, Steps: 37, Stages: 3, FPRate: 0.2},
				Config{Det: det, Cores: cores, Steps: 12, Stages: 5})
		}
	}
	return cs
}

// TestRunGolden pins every Result bit of goldenConfigs: the timings as
// hexadecimal floats, so a change in the last place of a clock shows.
// Regenerate deliberately with go test ./internal/scaling -run TestRunGolden -update.
func TestRunGolden(t *testing.T) {
	hex := func(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }
	var got bytes.Buffer
	for _, cfg := range goldenConfigs() {
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%+v: %v", cfg, err)
		}
		fmt.Fprintf(&got, "%s cores=%d steps=%d stages=%d fp=%g: cores=%d step=%s check=%s solver=%d detector=%d\n",
			cfg.Det, cfg.Cores, cfg.Steps, cfg.Stages, cfg.FPRate,
			res.Cores, hex(res.StepSeconds), hex(res.CheckSeconds), res.SolverBytes, res.DetectorBytes)
	}
	path := filepath.Join("testdata", "run.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("Run differs from %s (regenerate deliberately with -update):\n--- got ---\n%s\n--- want ---\n%s", path, got.Bytes(), want)
	}
}
