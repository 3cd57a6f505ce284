package weno

import "repro/internal/la"

// The kernels as they were before the curvature terms slid across the
// window, kept as the differential tests' reference: each position
// computes all three smoothness indicators through refSmoothness.

func refSmoothness(m2, m1, c, p1, p2 float64) (b0, b1, b2 float64) {
	b0 = 13.0/12.0*(m2-2*m1+c)*(m2-2*m1+c) + 0.25*(m2-4*m1+3*c)*(m2-4*m1+3*c)
	b1 = 13.0/12.0*(m1-2*c+p1)*(m1-2*c+p1) + 0.25*(m1-p1)*(m1-p1)
	b2 = 13.0/12.0*(c-2*p1+p2)*(c-2*p1+p2) + 0.25*(3*c-4*p1+p2)*(3*c-4*p1+p2)
	return
}

func refWeno5(fhat, f []float64) {
	n := len(f) - 2*Ghost
	m2, m1, c, p1 := f[0], f[1], f[2], f[3]
	for k := 0; k <= n; k++ {
		p2 := f[k+4]
		b0, b1, b2 := refSmoothness(m2, m1, c, p1, p2)
		a0 := 0.1 / ((Eps + b0) * (Eps + b0))
		a1 := 0.6 / ((Eps + b1) * (Eps + b1))
		a2 := 0.3 / ((Eps + b2) * (Eps + b2))
		s := a0 + a1 + a2
		w0, w1, w2 := a0/s, a1/s, a2/s
		q0 := (2*m2 - 7*m1 + 11*c) / 6
		q1 := (-m1 + 5*c + 2*p1) / 6
		q2 := (2*c + 5*p1 - p2) / 6
		fhat[k] = w0*q0 + w1*q1 + w2*q2
		m2, m1, c, p1 = m1, c, p1, p2
	}
}

func refWenoZ5(fhat, f []float64) {
	n := len(f) - 2*Ghost
	m2, m1, c, p1 := f[0], f[1], f[2], f[3]
	for k := 0; k <= n; k++ {
		p2 := f[k+4]
		b0, b1, b2 := refSmoothness(m2, m1, c, p1, p2)
		tau := b0 - b2
		if tau < 0 {
			tau = -tau
		}
		r0 := tau / (b0 + Eps)
		r1 := tau / (b1 + Eps)
		r2 := tau / (b2 + Eps)
		a0 := 0.1 * (1 + r0*r0)
		a1 := 0.6 * (1 + r1*r1)
		a2 := 0.3 * (1 + r2*r2)
		s := a0 + a1 + a2
		w0, w1, w2 := a0/s, a1/s, a2/s
		q0 := (2*m2 - 7*m1 + 11*c) / 6
		q1 := (-m1 + 5*c + 2*p1) / 6
		q2 := (2*c + 5*p1 - p2) / 6
		fhat[k] = w0*q0 + w1*q1 + w2*q2
		m2, m1, c, p1 = m1, c, p1, p2
	}
}

func refCrweno5(fhat, f []float64, periodic bool) {
	n := len(f) - 2*Ghost
	m := n + 1
	al, ad, au, rhs := make([]float64, m), make([]float64, m), make([]float64, m), make([]float64, m)
	scratch := make([]float64, 3*m)
	m2, m1, cc, p1 := f[0], f[1], f[2], f[3]
	for k := 0; k <= n; k++ {
		p2 := f[k+4]
		b0, b1, b2 := refSmoothness(m2, m1, cc, p1, p2)
		a0 := 0.2 / ((Eps + b0) * (Eps + b0))
		a1 := 0.5 / ((Eps + b1) * (Eps + b1))
		a2 := 0.3 / ((Eps + b2) * (Eps + b2))
		s := a0 + a1 + a2
		w0, w1, w2 := a0/s, a1/s, a2/s
		al[k] = (2*w0 + w1) / 3
		ad[k] = (w0 + 2*(w1+w2)) / 3
		au[k] = w2 / 3
		rhs[k] = w0/6*m1 + (5*(w0+w1)+w2)/6*cc + (w1+5*w2)/6*p1
		m2, m1, cc, p1 = m1, cc, p1, p2
	}
	if periodic {
		a2, d2, u2, r2 := al[:n], ad[:n], au[:n], rhs[:n]
		la.TridiagSolveCyclic(a2, d2, u2, r2, scratch)
		copy(fhat[:n], r2)
		fhat[n] = fhat[0]
		return
	}
	closure := func(k int) float64 {
		j := k - 1 + Ghost
		var mini [1 + 2*Ghost]float64
		copy(mini[1:2*Ghost], f[j-Ghost+1:j+Ghost])
		var out [2]float64
		refWeno5(out[:], mini[:])
		return out[1]
	}
	fhat0 := closure(0)
	fhatN := closure(n)
	al[0], ad[0], au[0], rhs[0] = 0, 1, 0, fhat0
	al[n], ad[n], au[n], rhs[n] = 0, 1, 0, fhatN
	la.TridiagSolve(al, ad, au, rhs, scratch)
	copy(fhat, rhs)
}
