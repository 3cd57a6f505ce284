package harness

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/inject"
	"repro/internal/ode"
	"repro/internal/problems"
)

// slowProblem is a campaign cell whose single replicate runs long enough
// (hundreds of thousands of steps at a tight tolerance) that prompt
// cancellation must interrupt an in-flight integration, not just skip the
// next replicate.
func slowProblem() *problems.Problem {
	p := problems.Oscillator()
	p.TEnd = 20000
	p.TolA, p.TolR = 1e-7, 1e-7
	return p
}

// TestRunContextCancelPrompt is the cancellation regression test of the
// campaign engine: serially and on a pool, with and without the ignored
// Batch hint, a cancelled context must make RunContext return the context
// error promptly — abandoning the in-flight integration on a step boundary
// — and leave no campaign goroutine behind.
func TestRunContextCancelPrompt(t *testing.T) {
	shapes := []struct {
		name           string
		workers, batch int
	}{
		{"serial", 1, 0},
		{"parallel", 4, 0},
		{"serial-batched", 1, 4},
		{"parallel-batched", 4, 4},
	}
	base := runtime.NumGoroutine()
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			cfg := Config{
				Problem:       slowProblem(),
				Tab:           ode.HeunEuler(),
				Injector:      inject.Scaled{},
				Detector:      Classic,
				Seed:          1,
				MinInjections: 1 << 30, // unreachable: only cancellation stops the campaign
				MaxRuns:       1 << 20,
				Workers:       sh.workers,
				Batch:         sh.batch,
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() {
				res, err := RunContext(ctx, cfg)
				if res != nil {
					err = errors.New("cancelled campaign returned a partial Result")
				}
				done <- err
			}()
			time.Sleep(50 * time.Millisecond) // let the integrations get in flight
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("RunContext returned %v, want context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("RunContext did not return within 5s of cancellation")
			}
		})
	}

	// No goroutine leak: every engine waits for its workers before
	// returning, so the count must settle back to the pre-campaign level
	// (with slack for runtime/test-framework housekeeping goroutines).
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancellation: %d now vs %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunContextPreCancelled pins the fast path: a context cancelled before
// submission runs zero replicates.
func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		cfg := Config{
			Problem:  fastProblem(),
			Tab:      ode.HeunEuler(),
			Injector: inject.Scaled{},
			Detector: Classic,
			Seed:     1,
			Workers:  workers,
		}
		if _, err := RunContext(ctx, cfg); !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: got %v, want context.Canceled", workers, err)
		}
	}
}

// TestRunContextBackgroundMatchesRun proves the context plumbing is
// byte-neutral: RunContext with a background context reproduces Run
// exactly (the nil-Halt path is the only difference, and it must not
// change a single campaign number).
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	cfg := Config{
		Problem:       fastProblem(),
		Tab:           ode.HeunEuler(),
		Injector:      inject.Scaled{},
		Detector:      IBDC,
		Seed:          42,
		MinInjections: 40,
		Workers:       1,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Canonical() != b.Canonical() {
		t.Fatalf("RunContext diverges from Run:\n%+v\nvs\n%+v", a.Canonical(), b.Canonical())
	}
}
