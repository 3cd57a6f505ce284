package pde

import (
	"repro/internal/euler"
	"repro/internal/la"
	"repro/internal/weno"
)

// referenceEval is the right-hand side as Eval computed it before pass 1
// kept its per-point values, and the differential tests' reference: pass 2
// gathers every padded cell of every line through ghostIndex and unpacks
// it again before taking its flux, and the parabolic terms unpack every
// point a third time. It reads the system but none of its scratch, so
// both can run on one system.
func referenceEval(s *EulerSystem, x la.Vec, dst la.Vec) {
	g := s.Grid
	dst.Zero()

	maxLen := 0
	for _, ax := range s.axes {
		maxLen = max(maxLen, g.N[ax])
	}
	pad := maxLen + 2*weno.Ghost
	qline := make([][]float64, s.nvar)
	fP := make([][]float64, s.nvar)
	fM := make([][]float64, s.nvar)
	for v := range qline {
		qline[v] = make([]float64, pad)
		fP[v] = make([]float64, pad)
		fM[v] = make([]float64, pad)
	}
	flatline := make([]float64, pad)
	fhatP := make([]float64, maxLen+1)
	fhatM := make([]float64, maxLen+1)
	fbuf := make([]float64, s.nvar)
	deriv := make([]float64, maxLen)

	// Pass 1: global Rusanov speeds per axis and the gravity source.
	alpha := make([]float64, 3)
	var q [5]float64
	gm := -1
	if s.GravAxis >= 0 {
		gm = s.axisIndexOf(s.GravAxis)
	}
	for idx := 0; idx < s.np; idx++ {
		for v := 0; v < s.nvar; v++ {
			q[v] = x[v*s.np+idx]
		}
		pt := s.Gas.Unpack(q[:s.nvar], s.d, s.bg[0][idx], s.bg[1][idx], s.bg[2][idx])
		for ai, ax := range s.axes {
			if w := s.Gas.MaxWave(pt, ai); w > alpha[ax] {
				alpha[ax] = w
			}
		}
		if gm < 0 {
			continue
		}
		rhoP := q[0]
		w := pt.M[gm] / pt.Rho
		dst[(1+gm)*s.np+idx] -= rhoP * s.Gas.G
		dst[(1+s.d)*s.np+idx] -= pt.Rho * s.Gas.G * w
	}

	if s.AlphaOverride != nil {
		copy(alpha, s.AlphaOverride)
	}

	// Pass 2: flux divergence axis by axis.
	for _, ax := range s.axes {
		n := g.N[ax]
		bc := s.BCs[ax]
		dxi := 1 / g.Dx[ax]
		a := alpha[ax]
		ami := s.axisIndexOf(ax)
		for _, ln := range s.lines[ax] {
			for p := -weno.Ghost; p < n+weno.Ghost; p++ {
				src, sign := ghostIndex(p, n, bc)
				flat := ln.Start + src*ln.Stride
				for v := 0; v < s.nvar; v++ {
					val := x[v*s.np+flat]
					if v == 1+ami && sign < 0 {
						val = -val
					}
					qline[v][p+weno.Ghost] = val
				}
				flatline[p+weno.Ghost] = float64(flat)
			}
			for p := -weno.Ghost; p < n+weno.Ghost; p++ {
				jp := p + weno.Ghost
				flat := int(flatline[jp])
				for v := 0; v < s.nvar; v++ {
					q[v] = qline[v][jp]
				}
				pt := s.Gas.Unpack(q[:s.nvar], s.d, s.bg[0][flat], s.bg[1][flat], s.bg[2][flat])
				euler.Flux(pt, s.d, ami, fbuf)
				rev := n + 2*weno.Ghost - 1 - jp
				for v := 0; v < s.nvar; v++ {
					u := qline[v][jp]
					fP[v][jp] = 0.5 * (fbuf[v] + a*u)
					fM[v][rev] = 0.5 * (fbuf[v] - a*u)
				}
			}
			for v := 0; v < s.nvar; v++ {
				s.Scheme.ReconstructLeft(fhatP[:n+1], fP[v][:n+2*weno.Ghost])
				s.Scheme.ReconstructLeft(fhatM[:n+1], fM[v][:n+2*weno.Ghost])
				for i := 0; i < n; i++ {
					fr := fhatP[i+1] + fhatM[n-1-i]
					fl := fhatP[i] + fhatM[n-i]
					deriv[i] = -(fr - fl) * dxi
				}
				flat := ln.Start
				for i := 0; i < n; i++ {
					dst[v*s.np+flat] += deriv[i]
					flat += ln.Stride
				}
			}
		}
	}

	// Pass 3: parabolic terms.
	if s.Nu == 0 && s.Kappa == 0 {
		return
	}
	uf := make([][]float64, s.d+1)
	for i := range uf {
		uf[i] = make([]float64, s.np)
	}
	cv := s.Gas.R / (s.Gas.Gamma - 1)
	for idx := 0; idx < s.np; idx++ {
		for v := 0; v < s.nvar; v++ {
			q[v] = x[v*s.np+idx]
		}
		pt := s.Gas.Unpack(q[:s.nvar], s.d, s.bg[0][idx], s.bg[1][idx], s.bg[2][idx])
		for i := 0; i < s.d; i++ {
			uf[i][idx] = pt.M[i] / pt.Rho
		}
		tBar := s.bg[1][idx] / (s.Gas.R * s.bg[0][idx])
		uf[s.d][idx] = pt.P/(s.Gas.R*pt.Rho) - tBar
	}
	for _, ax := range s.axes {
		n := g.N[ax]
		bc := s.BCs[ax]
		ami := s.axisIndexOf(ax)
		coef := 1 / (g.Dx[ax] * g.Dx[ax])
		for _, ln := range s.lines[ax] {
			for i := 0; i < n; i++ {
				flat := ln.Start + i*ln.Stride
				li, lSign := ghostIndex(i-1, n, bc)
				ri, rSign := ghostIndex(i+1, n, bc)
				lFlat := ln.Start + li*ln.Stride
				rFlat := ln.Start + ri*ln.Stride
				rho := s.bg[0][flat] + x[flat]
				for f := 0; f <= s.d; f++ {
					lv, rv := uf[f][lFlat], uf[f][rFlat]
					if f == ami {
						lv *= lSign
						rv *= rSign
					}
					lap := coef * (lv - 2*uf[f][flat] + rv)
					if f < s.d {
						if s.Nu != 0 {
							dst[(1+f)*s.np+flat] += s.Nu * rho * lap
						}
					} else if s.Kappa != 0 {
						dst[(1+s.d)*s.np+flat] += s.Kappa * rho * cv * lap
					}
				}
			}
		}
	}
}
