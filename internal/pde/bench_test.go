package pde

import (
	"testing"

	"repro/internal/euler"
	"repro/internal/grid"
	"repro/internal/la"
	"repro/internal/weno"
)

// benchEval times Eval on an n-by-n bubble whose initial state carries
// perturb's noise: a campaign evaluates moving states, and at rest every
// momentum is 0.
func benchEval(b *testing.B, scheme weno.Scheme, n int) {
	g := grid.New2D(n, n, 1000, 1000)
	s := NewEulerSystem(g, euler.DefaultGas(), scheme)
	x := perturb(s, s.InitialState(euler.DefaultBubble()), 1)
	dst := la.NewVec(s.Dim())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Eval(0, x, dst)
	}
}

// BenchmarkBubbleEvalWENO16 is the grid of the repository benchmark's
// table3-bubble workload.
func BenchmarkBubbleEvalWENO16(b *testing.B)   { benchEval(b, weno.Weno5{}, 16) }
func BenchmarkBubbleEvalWENO32(b *testing.B)   { benchEval(b, weno.Weno5{}, 32) }
func BenchmarkBubbleEvalWENO64(b *testing.B)   { benchEval(b, weno.Weno5{}, 64) }
func BenchmarkBubbleEvalCRWENO32(b *testing.B) { benchEval(b, &weno.Crweno5{}, 32) }
