package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/inject"
	"repro/internal/ode"
)

// The differential sweep pins every deterministic byte a campaign produces —
// the canonical result, the full per-trial step trace, and the timing-free
// metrics snapshot — for every detector kind, against committed golden files
// generated from the seed tree. A refactor of the protected-step protocol
// must reproduce these artifacts exactly, serially and with -workers=4.
//
// Regenerate deliberately with:
//
//	go test ./internal/harness -run SweepGolden -update

// sweepArtifact runs one campaign cell and serializes its deterministic
// outputs into a single byte stream: one JSON line for the canonical result,
// one JSONL line per trace event, one JSON line for the metrics snapshot.
// batch sets Config.Batch, which the engine ignores.
func sweepArtifact(t *testing.T, det DetectorKind, workers, batch int) []byte {
	t.Helper()
	res, err := Run(Config{
		Problem:       fastProblem(),
		Tab:           ode.HeunEuler(),
		Injector:      inject.Scaled{},
		Detector:      det,
		Seed:          20170905,
		MinInjections: 40,
		Workers:       workers,
		Batch:         batch,
		Trace:         true,
		TraceCap:      1 << 18,
		Metrics:       true,
	})
	if err != nil {
		t.Fatalf("%s workers=%d batch=%d: %v", det, workers, batch, err)
	}
	if res.Trace.Dropped() != 0 {
		t.Fatalf("%s workers=%d batch=%d: trace ring dropped %d events; raise TraceCap", det, workers, batch, res.Trace.Dropped())
	}
	var buf bytes.Buffer
	canon, err := json.Marshal(res.Canonical())
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(canon)
	buf.WriteByte('\n')
	if err := res.Trace.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	snap, err := json.Marshal(res.Metrics.Snapshot().WithoutTimings())
	if err != nil {
		t.Fatal(err)
	}
	buf.Write(snap)
	buf.WriteByte('\n')
	return buf.Bytes()
}

// TestDetectorSweepGolden covers every adaptive detector kind × {serial,
// workers=4}: the serial artifact must match its committed golden file byte
// for byte, and the 4-worker artifact must match the serial one.
func TestDetectorSweepGolden(t *testing.T) {
	for _, det := range AllDetectors() {
		t.Run(string(det), func(t *testing.T) {
			serial := sweepArtifact(t, det, 1, 0)
			checkGolden(t, fmt.Sprintf("sweep_%s.golden", det), serial)
			if par := sweepArtifact(t, det, 4, 0); !bytes.Equal(par, serial) {
				t.Errorf("workers=4 artifact diverges from serial (%d vs %d bytes)", len(par), len(serial))
			}
		})
	}
}

// TestFixedSweepGolden pins the fixed-step campaign path for the unguarded
// solver and both related-work detectors: the serial canonical result must
// match its committed golden file byte for byte, and the 4-worker result
// the serial one.
func TestFixedSweepGolden(t *testing.T) {
	for _, c := range []struct {
		name string
		det  DetectorKind
	}{{"none", Classic}, {"aid", AID}, {"hotrode", HotRode}} {
		t.Run(c.name, func(t *testing.T) {
			var serial []byte
			for _, workers := range []int{1, 4} {
				res, err := Run(Config{
					Problem:       fastProblem(),
					Tab:           ode.HeunEuler(),
					Injector:      inject.Scaled{},
					Detector:      c.det,
					Seed:          20170905,
					MinInjections: 30,
					MaxRuns:       200,
					Workers:       workers,
					FixedStep:     true,
				})
				if err != nil {
					t.Fatal(err)
				}
				canon, err := json.Marshal(res.Canonical())
				if err != nil {
					t.Fatal(err)
				}
				canon = append(canon, '\n')
				if serial == nil {
					serial = canon
					checkGolden(t, fmt.Sprintf("sweep_fixed_%s.golden", c.name), canon)
				} else if !bytes.Equal(canon, serial) {
					t.Errorf("workers=%d result diverges from serial:\n%s", workers, canon)
				}
			}
		})
	}
}
