package harness

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/control"
	"repro/internal/inject"
	"repro/internal/ode"
	"repro/internal/problems"
	"repro/internal/xrand"
)

// fastProblem is a small nonstiff workload that keeps a full campaign in the
// low milliseconds, so the determinism matrix below stays cheap under -race.
func fastProblem() *problems.Problem {
	p := problems.Oscillator()
	p.TEnd = 3
	p.TolA, p.TolR = 1e-4, 1e-4
	return p
}

// TestParallelRunMatchesSerial is the engine's core guarantee: for any
// worker count, Run produces a Result bitwise identical (timing fields
// aside) to the serial reference engine — same rates, same counts, same
// per-step ground-truth classification — including the sequential
// Injections >= MinInjections stopping rule.
func TestParallelRunMatchesSerial(t *testing.T) {
	injectors := map[string]inject.Injector{
		"singlebit": inject.SingleBit{},
		"scaled":    inject.Scaled{},
	}
	workerCounts := []int{4, runtime.GOMAXPROCS(0)}
	for _, seed := range []uint64{1, 2, 3} {
		for _, det := range []DetectorKind{Classic, IBDC, LBDC} {
			for injName, inj := range injectors {
				cfg := Config{
					Problem:       fastProblem(),
					Tab:           ode.HeunEuler(),
					Injector:      inj,
					Detector:      det,
					Seed:          seed,
					MinInjections: 40,
					Workers:       1,
				}
				serial, err := Run(cfg)
				if err != nil {
					t.Fatalf("seed=%d %s/%s serial: %v", seed, det, injName, err)
				}
				want := serial.Canonical()
				for _, w := range workerCounts {
					t.Run(fmt.Sprintf("seed=%d/%s/%s/workers=%d", seed, det, injName, w), func(t *testing.T) {
						c := cfg
						c.Workers = w
						par, err := Run(c)
						if err != nil {
							t.Fatal(err)
						}
						if got := par.Canonical(); got != want {
							t.Errorf("workers=%d diverges from serial:\ngot  %+v\nwant %+v", w, got, want)
						}
						if par.Workers != c.workers() {
							t.Errorf("Workers = %d, want %d", par.Workers, c.workers())
						}
					})
				}
			}
		}
	}
}

// TestParallelRunMatchesSerialWithStateProb covers the second substream
// (state-corruption plan) whose root splits interleave with the stage-plan
// splits and must stay in replicate order.
func TestParallelRunMatchesSerialWithStateProb(t *testing.T) {
	cfg := Config{
		Problem:       fastProblem(),
		Tab:           ode.BogackiShampine(),
		Injector:      inject.Scaled{},
		Detector:      IBDC,
		Seed:          5,
		MinInjections: 40,
		StateProb:     0.02,
		Workers:       1,
	}
	serial, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 3
	par, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if par.Canonical() != serial.Canonical() {
		t.Errorf("state-prob campaign diverges:\ngot  %+v\nwant %+v", par.Canonical(), serial.Canonical())
	}
}

// TestParallelRunMaxRunsBoundary pins the other stopping rule: when MaxRuns
// binds before MinInjections, every engine must execute exactly MaxRuns
// replicates, waves trimmed to the boundary.
func TestParallelRunMaxRunsBoundary(t *testing.T) {
	cfg := Config{
		Problem:       fastProblem(),
		Tab:           ode.HeunEuler(),
		Injector:      inject.Scaled{},
		Detector:      Classic,
		Seed:          9,
		MinInjections: 1 << 30,
		MaxRuns:       5,
		Workers:       1,
	}
	serial, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Rates.Runs != 5 {
		t.Fatalf("serial runs = %d, want 5", serial.Rates.Runs)
	}
	cfg.Workers = 4 // wave of 8 must be trimmed to the 5-replicate budget
	par, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if par.Canonical() != serial.Canonical() {
		t.Errorf("MaxRuns boundary diverges:\ngot  %+v\nwant %+v", par.Canonical(), serial.Canonical())
	}
}

// TestParallelRunErrorPropagates keeps the serial error contract: an invalid
// detector fails the campaign on every engine.
func TestParallelRunErrorPropagates(t *testing.T) {
	_, err := Run(Config{Problem: fastProblem(), Tab: ode.HeunEuler(), Injector: inject.Scaled{},
		Detector: "bogus", Seed: 1, MinInjections: 10, Workers: 4})
	if err == nil {
		t.Fatal("expected error for unknown detector on the parallel engine")
	}
}

// TestRunRecordsSpeedup checks the wall-clock accounting fields: CPUSeconds
// aggregates per-replicate time and Speedup is their ratio to wall time.
func TestRunRecordsSpeedup(t *testing.T) {
	res, err := Run(Config{Problem: fastProblem(), Tab: ode.HeunEuler(), Injector: inject.Scaled{},
		Detector: Classic, Seed: 1, MinInjections: 40, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.CPUSeconds <= 0 || res.WallSeconds <= 0 {
		t.Fatalf("missing timing: cpu=%g wall=%g", res.CPUSeconds, res.WallSeconds)
	}
	if res.Speedup <= 0 {
		t.Fatalf("speedup = %g, want > 0", res.Speedup)
	}
}

// TestReplicaSeedsNonOverlapping verifies the xrand-split replica seeding:
// pairwise distinct seeds whose campaign root streams share no value in
// their first 10^4 draws (a 64-bit collision there is ~5e-12 likely, so any
// overlap means the streams are correlated).
func TestReplicaSeedsNonOverlapping(t *testing.T) {
	const k, draws = 4, 10000
	seeds := ReplicaSeeds(1, k)
	if len(seeds) != k {
		t.Fatalf("got %d seeds", len(seeds))
	}
	streams := make([]map[uint64]bool, k)
	for i, s := range seeds {
		for j := 0; j < i; j++ {
			if seeds[j] == s {
				t.Fatalf("seeds %d and %d identical: %#x", i, j, s)
			}
		}
		// The campaign root stream this replica seed induces (see Run).
		r := xrand.New(s ^ 0xc0ffee)
		streams[i] = make(map[uint64]bool, draws)
		for n := 0; n < draws; n++ {
			streams[i][r.Uint64()] = true
		}
	}
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			for v := range streams[j] {
				if streams[i][v] {
					t.Fatalf("replica streams %d and %d overlap in their first %d draws", i, j, draws)
				}
			}
		}
	}
	// Determinism: same base seed, same replica seeds.
	again := ReplicaSeeds(1, k)
	for i := range seeds {
		if seeds[i] != again[i] {
			t.Fatalf("ReplicaSeeds not deterministic at %d", i)
		}
	}
}

// TestRunReplicatedWorkerInvariance: the worker count must not change any
// seed replica's rates.
func TestRunReplicatedWorkerInvariance(t *testing.T) {
	cfg := Config{Problem: fastProblem(), Tab: ode.HeunEuler(), Injector: inject.Scaled{},
		Detector: Classic, Seed: 3, MinInjections: 40}
	cfg.Workers = 1
	serial, err := RunReplicated(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 4
	par, err := RunReplicated(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(par.Results) != len(serial.Results) {
		t.Fatalf("replica counts differ: %d vs %d", len(par.Results), len(serial.Results))
	}
	for i := range serial.Results {
		if par.Results[i].Canonical() != serial.Results[i].Canonical() {
			t.Errorf("replica %d diverges:\ngot  %+v\nwant %+v",
				i, par.Results[i].Canonical(), serial.Results[i].Canonical())
		}
	}
	if par.TPRMean != serial.TPRMean || par.FPRMean != serial.FPRMean || par.SFNRMean != serial.SFNRMean {
		t.Errorf("replicated means diverge: %+v vs %+v", par, serial)
	}
}

// TestWaveDispatchOverprovisioned is the regression for the unbuffered
// dispatch channel sdcvet's ctxflow analyzer flagged: the wave dispatcher
// now fills a buffered channel and closes it without needing a receiver
// per send. With far more workers than wave entries (and a MaxRuns cap
// smaller than the pool) the campaign must complete and stay bitwise
// identical to the serial reference, with or without the ignored Batch
// hint.
func TestWaveDispatchOverprovisioned(t *testing.T) {
	cfg := Config{
		Problem:       fastProblem(),
		Tab:           ode.HeunEuler(),
		Injector:      inject.Scaled{},
		Detector:      Classic,
		Seed:          5,
		MinInjections: 1 << 30, // unreachable: MaxRuns is the stopping rule
		MaxRuns:       8,
		Workers:       1,
	}
	serial, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := serial.Canonical()
	for _, shape := range []struct {
		name           string
		workers, batch int
	}{
		{"parallel", 32, 0},
		{"parallel-batched", 32, 4},
	} {
		t.Run(shape.name, func(t *testing.T) {
			c := cfg
			c.Workers, c.Batch = shape.workers, shape.batch
			got, err := Run(c)
			if err != nil {
				t.Fatal(err)
			}
			if g := got.Canonical(); g != want {
				t.Errorf("%s diverges from serial:\ngot  %+v\nwant %+v", shape.name, g, want)
			}
		})
	}
}

// TestCampaignExecutedWork bounds the replicates a campaign executes, not
// only the ones it merges: the goldens cannot see a replicate that ran and
// was then discarded by the stopping rule. wireReplicate calls NewSys once
// per executed replicate, so counting the calls counts the work. One
// worker runs exactly the merged replicates; on a pool the last wave may
// overshoot the replicate that fired the stopping rule, but by no more
// than its own size. The ignored Batch hint adds no work.
func TestCampaignExecutedWork(t *testing.T) {
	for _, shape := range []struct{ workers, batch int }{
		{1, 0}, {1, 1}, {1, 2}, {1, 3}, {1, 8}, {2, 0}, {4, 0}, {2, 3}, {4, 4},
	} {
		workers := shape.workers
		t.Run(fmt.Sprintf("workers=%d/B=%d", workers, shape.batch), func(t *testing.T) {
			p := fastProblem()
			var executed atomic.Int64
			sys := p.Sys
			p.NewSys = func() control.System {
				executed.Add(1)
				return sys
			}
			res, err := Run(Config{
				Problem:       p,
				Tab:           ode.HeunEuler(),
				Injector:      inject.Scaled{},
				Detector:      Classic,
				Seed:          7,
				MinInjections: 200,
				Workers:       workers,
				Batch:         shape.batch,
			})
			if err != nil {
				t.Fatal(err)
			}
			runs, got := res.Rates.Runs, int(executed.Load())
			bound := runs
			if workers > 1 {
				bound = runs + waveFactor*workers - 1
			}
			if got < runs || got > bound {
				t.Errorf("executed %d replicates for %d merged runs, want within [%d, %d]", got, runs, runs, bound)
			}
		})
	}
}
