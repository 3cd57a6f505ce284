package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/inject"
	"repro/internal/ode"
)

// Config.Batch is accepted and ignored: it stays only because the
// repository benchmark still sets it. A campaign that carries the hint must
// reproduce the committed serial goldens — canonical result, full per-trial
// trace (verdicts, SErr estimates, and the detectors' (q, c) order state),
// and the timing-free metrics snapshot — byte for byte, for every detector
// kind, every lane width the retired lockstep engine took, and both worker
// modes. The goldens are the serially generated artifacts of
// TestDetectorSweepGolden; this suite never regenerates them.

// readGolden loads a committed golden artifact; unlike checkGolden it never
// writes, so -update cannot re-anchor the goldens to a run with the hint.
func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatalf("missing serial golden (generate with -run DetectorSweepGolden -update): %v", err)
	}
	return want
}

// TestBatchedSweepGolden covers every adaptive detector × B ∈ {1, 2, 3, 4,
// 8, 16} × workers ∈ {1, 4} against the committed serial goldens.
func TestBatchedSweepGolden(t *testing.T) {
	widths := []int{1, 2, 3, 4, 8, 16}
	if testing.Short() {
		widths = []int{1, 4}
	}
	for _, det := range AllDetectors() {
		want := readGolden(t, fmt.Sprintf("sweep_%s.golden", det))
		for _, workers := range []int{1, 4} {
			for _, b := range widths {
				t.Run(fmt.Sprintf("%s/workers=%d/B=%d", det, workers, b), func(t *testing.T) {
					got := sweepArtifact(t, det, workers, b)
					if !bytes.Equal(got, want) {
						t.Errorf("artifact with Batch=%d diverges from serial golden (%d vs %d bytes)", b, len(got), len(want))
					}
				})
			}
		}
	}
}

// stateSweepConfig is a campaign cell with the §V-D transient state
// corruption enabled, so the per-replicate state substreams are exercised
// end to end.
func stateSweepConfig() Config {
	return Config{
		Problem:       fastProblem(),
		Tab:           ode.HeunEuler(),
		Injector:      inject.Scaled{},
		Detector:      LBDC,
		Seed:          42,
		MinInjections: 40,
		StateProb:     0.02,
	}
}

func canonicalJSON(t *testing.T, res *Result) []byte {
	t.Helper()
	b, err := json.Marshal(res.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBatchedStateHookSweep covers the §V-D state-corruption path: with
// the Batch hint set, canonical results must agree with the serial run
// across widths and worker counts.
func TestBatchedStateHookSweep(t *testing.T) {
	run := func(workers, b int) []byte {
		t.Helper()
		cfg := stateSweepConfig()
		cfg.Workers, cfg.Batch = workers, b
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d batch=%d: %v", workers, b, err)
		}
		return canonicalJSON(t, res)
	}
	want := run(1, 0)
	for _, workers := range []int{1, 4} {
		for _, b := range []int{2, 3, 8} {
			if got := run(workers, b); !bytes.Equal(got, want) {
				t.Errorf("workers=%d batch=%d: canonical result diverges from serial", workers, b)
			}
		}
	}
}
