package dist

import (
	"math"
	"testing"

	"repro/internal/la"
	"repro/internal/mpi"
	"repro/internal/problems"
	"repro/internal/weno"
)

func TestDistributedMatchesSerialBitwise(t *testing.T) {
	// The distributed solve performs the same arithmetic as the single-rank
	// solve; only data placement differs. Results must agree bit for bit.
	serial, err := RunBurgers(BurgersConfig{Ranks: 1, N: 96, Steps: 40, H: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 3, 4, 6} {
		distd, err := RunBurgers(BurgersConfig{Ranks: p, N: 96, Steps: 40, H: 0.002})
		if err != nil {
			t.Fatal(err)
		}
		a, b := serial.Field(), distd.Field()
		if len(a) != len(b) {
			t.Fatalf("p=%d: field sizes differ", p)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("p=%d: fields differ at %d: %g vs %g", p, i, a[i], b[i])
			}
		}
	}
}

// TestBurgersRankMatchesSerialEval pins the rank-local right-hand side to
// the serial one: one collective evaluation at 1 to 4 ranks, gathered,
// equals problems.Burgers1D's Sys.Eval bit for bit, at the initial state
// and at a rough one, on a grid that splits evenly and on one that does
// not.
func TestBurgersRankMatchesSerialEval(t *testing.T) {
	for _, n := range []int{96, 100} {
		p := problems.Burgers1D(n, "weno5")
		rough := p.X0.Clone()
		for i := range rough {
			rough[i] += 0.1 * math.Sin(7.3*float64(i*i))
		}
		for _, x := range []la.Vec{p.X0, rough} {
			want := make(la.Vec, n)
			p.Sys.Eval(0, x, want)
			for ranks := 1; ranks <= 4; ranks++ {
				bounds, err := burgersBounds(ranks, n)
				if err != nil {
					t.Fatal(err)
				}
				got := make(la.Vec, n)
				mpi.Run(ranks, mpi.DefaultModel(), func(c *mpi.Comm) {
					lo, hi := bounds[c.Rank()], bounds[c.Rank()+1]
					newBurgersRank(c, hi-lo, n).Eval(0, x[lo:hi], got[lo:hi])
				})
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("n=%d ranks=%d: RHS[%d] = %v, serial %v", n, ranks, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestDistributedConservation(t *testing.T) {
	res, err := RunBurgers(BurgersConfig{Ranks: 4, N: 128, Steps: 100, H: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	var mean float64
	f := res.Field()
	for _, v := range f {
		mean += v
	}
	mean /= float64(len(f))
	if math.Abs(mean-1) > 1e-12 {
		t.Fatalf("mean = %.15f, want 1 (conservative scheme)", mean)
	}
}

func TestDistributedVirtualTimeScales(t *testing.T) {
	slow, err := RunBurgers(BurgersConfig{Ranks: 2, N: 512, Steps: 20, H: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := RunBurgers(BurgersConfig{Ranks: 8, N: 512, Steps: 20, H: 0.0005})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Seconds >= slow.Seconds {
		t.Fatalf("no simulated speedup: %g s at 2 ranks vs %g s at 8", slow.Seconds, fast.Seconds)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := RunBurgers(BurgersConfig{Ranks: 10, N: 20, Steps: 1, H: 0.001}); err == nil {
		t.Fatal("expected error for blocks smaller than the halo")
	}
}

func TestBoundsCoverDomain(t *testing.T) {
	res, err := RunBurgers(BurgersConfig{Ranks: 5, N: 100, Steps: 1, H: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if res.Bounds[0] != 0 || res.Bounds[5] != 100 {
		t.Fatalf("bounds %v", res.Bounds)
	}
	total := 0
	for _, b := range res.Blocks {
		total += len(b)
	}
	if total != 100 {
		t.Fatalf("blocks cover %d points", total)
	}
	_ = weno.Ghost
}

func TestAdaptiveDistributedMatchesSerial(t *testing.T) {
	serial, err := RunAdaptiveBurgers(AdaptiveConfig{Ranks: 1, N: 96, TEnd: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if serial.Steps == 0 {
		t.Fatal("no steps accepted")
	}
	for _, p := range []int{2, 4} {
		d, err := RunAdaptiveBurgers(AdaptiveConfig{Ranks: p, N: 96, TEnd: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if d.Steps != serial.Steps {
			t.Fatalf("p=%d: %d steps vs serial %d (lockstep broken)", p, d.Steps, serial.Steps)
		}
		a, b := serial.Field(), d.Field()
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("p=%d: fields differ at %d", p, i)
			}
		}
	}
}

func TestAdaptiveDistributedWithIBDC(t *testing.T) {
	// The guarded distributed run must complete, reach tEnd, and agree
	// closely with the unguarded one (FP rescues only recompute steps).
	plain, err := RunAdaptiveBurgers(AdaptiveConfig{Ranks: 3, N: 96, TEnd: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	guarded, err := RunAdaptiveBurgers(AdaptiveConfig{Ranks: 3, N: 96, TEnd: 0.05, IBDC: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(guarded.FinalT-0.05) > 1e-9 {
		t.Fatalf("guarded run stopped at t=%g", guarded.FinalT)
	}
	a, b := plain.Field(), guarded.Field()
	var maxDiff float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if maxDiff > 1e-6 {
		t.Fatalf("guarded field deviates by %g", maxDiff)
	}
	// The adaptive controller must actually adapt: error history nonempty
	// and within the tolerance band.
	for _, s := range guarded.AcceptedSErr {
		if s > 1 {
			t.Fatalf("accepted step with SErr %g", s)
		}
	}
}

func TestEuler2DDistributedMatchesSerial(t *testing.T) {
	n := 48
	h := 0.2 / float64(n) / 1.4 // well under acoustic CFL (c ~ 1.2)
	serial, err := RunEuler2D(Euler2DConfig{Ranks: 1, N: n, Steps: 10, H: h})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{2, 3, 4} {
		d, err := RunEuler2D(Euler2DConfig{Ranks: p, N: n, Steps: 10, H: h})
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 4; v++ {
			a, b := serial.Field(v), d.Field(v)
			if len(a) != len(b) {
				t.Fatalf("p=%d var %d: size %d vs %d", p, v, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("p=%d var %d: differs at %d: %g vs %g", p, v, i, a[i], b[i])
				}
			}
		}
	}
}

func TestEuler2DPhysicalSanity(t *testing.T) {
	n := 48
	h := 0.2 / float64(n) / 1.4
	res, err := RunEuler2D(Euler2DConfig{Ranks: 3, N: n, Steps: 40, H: h})
	if err != nil {
		t.Fatal(err)
	}
	rho := res.Field(0)
	var sum, mx float64
	for _, v := range rho {
		sum += v
		if math.Abs(v) > mx {
			mx = math.Abs(v)
		}
	}
	// Mass perturbation conserved (periodic box), amplitude bounded by the
	// initial pulse (acoustic spreading only decreases the peak).
	if math.Abs(sum/float64(len(rho))-meanInitialBump(n)) > 1e-12 {
		t.Fatalf("mean rho' drifted: %g", sum/float64(len(rho)))
	}
	if mx > 0.25 || math.IsNaN(mx) {
		t.Fatalf("pulse amplitude %g out of bounds", mx)
	}
}

func meanInitialBump(n int) float64 {
	var sum float64
	dx := 1.0 / float64(n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			px := (float64(i) + 0.5) * dx
			py := (float64(j) + 0.5) * dx
			r2 := (px-0.5)*(px-0.5) + (py-0.5)*(py-0.5)
			sum += 0.2 * math.Exp(-100*r2)
		}
	}
	return sum / float64(n*n)
}
