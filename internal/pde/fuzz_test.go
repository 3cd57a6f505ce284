package pde

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/euler"
	"repro/internal/grid"
	"repro/internal/la"
	"repro/internal/weno"
)

// FuzzEvalMatchesReference holds Eval to referenceEval under sameValue
// where TestEvalMatchesReference's fixed table does not reach. The target
// draws the grid rank and each axis length (weno.Ghost to weno.Ghost+13
// cells), a boundary condition per axis, the scheme, the parabolic terms
// and AlphaOverride's raw bits. The state is the bubble's initial state,
// at rest for seed 0 and perturbed with the seed otherwise, overwritten by
// raw's 10-byte records: a little-endian uint16 component index, reduced
// modulo the dimension, then the component's float64 bits. So ±0,
// subnormals, huge magnitudes, negative density and NaN/±Inf all reach
// Eval. Each input is evaluated after a clean state on the same system,
// so nothing one call leaves in the scratch may leak into the next. The
// committed corpus (testdata/fuzz) holds the 16² bubble, a 3-D case and
// mixed boundaries with non-finite values and overrides.
func FuzzEvalMatchesReference(f *testing.F) {
	schemes := []string{"weno5", "wenoz5", "crweno5", "crweno5-periodic"}
	f.Fuzz(func(t *testing.T, rank, nx, ny, nz, bcs, scheme, par uint8, override bool, a0, a1, a2, seed uint64, raw []byte) {
		axis := func(b uint8) int { return weno.Ghost + int(b)%14 }
		var g *grid.Grid
		switch rank % 3 {
		case 0:
			g = grid.New1D(axis(nx), 1000)
		case 1:
			g = grid.New2D(axis(nx), axis(ny), 1000, 1000)
		default:
			g = grid.New3D(axis(nx), axis(ny), axis(nz), 1000, 1000, 1000)
		}
		sch, err := weno.ByName(schemes[int(scheme)%len(schemes)])
		if err != nil {
			t.Fatal(err)
		}
		s := NewEulerSystem(g, euler.DefaultGas(), sch)
		s.BCs = [3]BC{BC(bcs % 3), BC(bcs / 3 % 3), BC(bcs / 9 % 3)}
		if nu, kappa := 10*float64(par&1), 20*float64(par>>1&1); nu != 0 || kappa != 0 {
			s.SetParabolic(nu, kappa)
		}
		if override {
			s.AlphaOverride = []float64{math.Float64frombits(a0), math.Float64frombits(a1), math.Float64frombits(a2)}
		}
		x := s.InitialState(euler.DefaultBubble())
		if seed != 0 {
			perturb(s, x, seed)
		}
		got, want := la.NewVec(s.Dim()), la.NewVec(s.Dim())
		s.Eval(0, x, got)
		for ; len(raw) >= 10; raw = raw[10:] {
			x[int(binary.LittleEndian.Uint16(raw))%len(x)] = math.Float64frombits(binary.LittleEndian.Uint64(raw[2:]))
		}
		for i := range got {
			got[i] = math.NaN() // Eval must overwrite every component
		}
		s.Eval(0, x, got)
		referenceEval(s, x, want)
		requireSame(t, "", got, want)
	})
}
