package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestWilsonKnownValue(t *testing.T) {
	// Classic check: 0/10 successes at 95% gives hi ~ 0.278.
	lo, hi := Wilson(0, 10, Z95)
	if lo != 0 {
		t.Fatalf("lo = %g", lo)
	}
	if math.Abs(hi-0.2775) > 0.005 {
		t.Fatalf("hi = %g, want ~0.278", hi)
	}
}

func TestWilsonEmptyTrials(t *testing.T) {
	lo, hi := Wilson(0, 0, Z95)
	if lo != 0 || hi != 1 {
		t.Fatalf("empty interval [%g, %g]", lo, hi)
	}
}

func TestWilsonContainsPointEstimateProperty(t *testing.T) {
	f := func(k, n uint16) bool {
		nn := int(n%5000) + 1
		kk := int(k) % (nn + 1)
		lo, hi := Wilson(kk, nn, Z95)
		p := float64(kk) / float64(nn)
		return lo <= p+1e-12 && p <= hi+1e-12 && lo >= 0 && hi <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWilsonShrinksWithTrials(t *testing.T) {
	small := NewRate(10, 100)
	large := NewRate(1000, 10000)
	smallW, largeW := small.HiPct-small.LoPct, large.HiPct-large.LoPct
	if largeW >= smallW {
		t.Fatalf("interval did not shrink: %g vs %g", largeW, smallW)
	}
	// At the paper's 10000-injection bar a 10% rate is known within ~0.6%.
	if largeW/2 > 0.7 {
		t.Fatalf("10k-trial half width %g%%, want < 0.7%%", largeW/2)
	}
}

func TestRateString(t *testing.T) {
	r := NewRate(50, 1000)
	s := r.String()
	if !strings.Contains(s, "5.0%") || !strings.Contains(s, "[") {
		t.Fatalf("String = %q", s)
	}
}

// TestWilsonBoundaryTotality pins the degenerate corners. Campaign rates
// are now aggregated concurrently and rendered unconditionally, so Wilson,
// NewRate, and MeanStd must be total functions: no NaN or ±Inf anywhere,
// intervals always within [0, 1] and containing the point estimate.
func TestWilsonBoundaryTotality(t *testing.T) {
	cases := []struct{ k, n int }{
		{0, 0},   // no trials at all
		{0, 1},   // single clean trial
		{1, 1},   // single event
		{0, 10},  // k = 0
		{10, 10}, // k = n
		{5, 10},  // interior sanity
	}
	for _, c := range cases {
		lo, hi := Wilson(c.k, c.n, Z95)
		if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
			t.Errorf("Wilson(%d, %d) not finite: [%g, %g]", c.k, c.n, lo, hi)
		}
		if lo < 0 || hi > 1 || lo > hi {
			t.Errorf("Wilson(%d, %d) outside [0,1] or inverted: [%g, %g]", c.k, c.n, lo, hi)
		}
		if c.n > 0 {
			p := float64(c.k) / float64(c.n)
			if p < lo-1e-12 || p > hi+1e-12 {
				t.Errorf("Wilson(%d, %d) = [%g, %g] excludes p = %g", c.k, c.n, lo, hi, p)
			}
		}
		r := NewRate(c.k, c.n)
		if math.IsNaN(r.Pct) || math.IsInf(r.Pct, 0) {
			t.Errorf("NewRate(%d, %d).Pct = %g", c.k, c.n, r.Pct)
		}
		if r.LoPct < 0 || r.HiPct > 100 || r.LoPct > r.HiPct {
			t.Errorf("NewRate(%d, %d) interval [%g, %g] outside [0, 100]", c.k, c.n, r.LoPct, r.HiPct)
		}
	}
	// n = 0 is maximally uninformative: the full [0, 100] interval.
	if r := NewRate(0, 0); r.Pct != 0 || r.LoPct != 0 || r.HiPct != 100 {
		t.Errorf("NewRate(0, 0) = %+v, want 0%% with [0, 100]", r)
	}
	// Exhaustive k = 0 and k = n rows stay pinned to the boundary.
	for n := 1; n <= 100; n++ {
		if lo, _ := Wilson(0, n, Z95); lo != 0 {
			t.Fatalf("Wilson(0, %d) lo = %g, want 0", n, lo)
		}
		if _, hi := Wilson(n, n, Z95); hi != 1 {
			t.Fatalf("Wilson(%d, %d) hi = %g, want 1", n, n, hi)
		}
	}
}

// TestMeanStdSmallSeries: n = 0 and n = 1 must be exact zeros (no 0/0 NaN
// from the n-1 divisor), and constant series must have zero deviation.
func TestMeanStdSmallSeries(t *testing.T) {
	if m, s := MeanStd([]float64{}); m != 0 || s != 0 {
		t.Fatalf("empty: %g, %g", m, s)
	}
	if m, s := MeanStd([]float64{-2.5}); m != -2.5 || s != 0 {
		t.Fatalf("singleton: %g, %g", m, s)
	}
	if m, s := MeanStd([]float64{4, 4, 4, 4}); m != 4 || s != 0 {
		t.Fatalf("constant: %g, %g", m, s)
	}
	m, s := MeanStd([]float64{1, 2})
	if m != 1.5 || math.IsNaN(s) || math.Abs(s-math.Sqrt(0.5)) > 1e-15 {
		t.Fatalf("pair: %g, %g", m, s)
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mean != 5 {
		t.Fatalf("mean = %g", mean)
	}
	if math.Abs(std-2.138) > 0.01 {
		t.Fatalf("std = %g", std)
	}
	if m, s := MeanStd(nil); m != 0 || s != 0 {
		t.Fatal("empty series should be zeros")
	}
	if m, s := MeanStd([]float64{3}); m != 3 || s != 0 {
		t.Fatalf("single sample: %g %g", m, s)
	}
}
