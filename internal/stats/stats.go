// Package stats quantifies the statistical significance of the detection
// rates: the paper requires >= 10,000 injections per experiment "to provide
// statistically significant detection performance"; the Wilson score
// interval makes that requirement checkable (a rate is trustworthy when its
// interval is tight).
package stats

import (
	"fmt"
	"math"
)

// Z95 is the two-sided 95% normal quantile.
const Z95 = 1.959963984540054

// Wilson returns the Wilson score interval [lo, hi] (as fractions in
// [0, 1]) for k successes out of n trials at confidence quantile z.
// For n = 0 it returns [0, 1].
func Wilson(k, n int, z float64) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	p := float64(k) / float64(n)
	nn := float64(n)
	z2 := z * z
	denom := 1 + z2/nn
	center := (p + z2/(2*nn)) / denom
	half := z / denom * math.Sqrt(p*(1-p)/nn+z2/(4*nn*nn))
	lo = center - half
	hi = center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	// Analytically lo = 0 at k = 0 and hi = 1 at k = n; pin them so
	// floating-point residue (~1e-17) cannot leak past the boundary.
	if k == 0 {
		lo = 0
	}
	if k == n {
		hi = 1
	}
	return
}

// Rate is a binomial rate with its 95% Wilson interval, in percent.
type Rate struct {
	Pct    float64
	LoPct  float64
	HiPct  float64
	Trials int
}

// NewRate builds a Rate from k events in n trials.
func NewRate(k, n int) Rate {
	lo, hi := Wilson(k, n, Z95)
	pct := 0.0
	if n > 0 {
		pct = 100 * float64(k) / float64(n)
	}
	return Rate{Pct: pct, LoPct: 100 * lo, HiPct: 100 * hi, Trials: n}
}

// String renders "12.3% [11.9, 12.8]".
func (r Rate) String() string {
	return fmt.Sprintf("%.1f%% [%.1f, %.1f]", r.Pct, r.LoPct, r.HiPct)
}

// Mean and sample standard deviation of a series (used for timing tables).
func MeanStd(xs []float64) (mean, std float64) {
	n := float64(len(xs))
	if n == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= n
	if n < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / (n - 1))
}
