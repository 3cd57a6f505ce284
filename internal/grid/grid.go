// Package grid provides structured Cartesian grids with ghost layers for
// the finite-difference PDE substrate: multi-dimensional indexing, line
// iteration for dimension-by-dimension WENO sweeps, and block domain
// decomposition for the distributed solves in internal/dist.
package grid

import "fmt"

// Grid is an equispaced Cartesian grid of up to three dimensions. Axes with
// size 1 are inactive (a 2-D grid is {nx, ny, 1}). Field data is stored
// without ghosts; ghost handling happens in line buffers during sweeps.
type Grid struct {
	N      [3]int     // points per axis (>= 1)
	Origin [3]float64 // coordinate of the first point center
	Dx     [3]float64 // spacing per axis (ignored for inactive axes)
}

// New2D returns an nx-by-ny grid covering [0,Lx]x[0,Ly] with cell-centered
// points.
func New2D(nx, ny int, lx, ly float64) *Grid {
	dx, dy := lx/float64(nx), ly/float64(ny)
	return &Grid{
		N:      [3]int{nx, ny, 1},
		Origin: [3]float64{dx / 2, dy / 2, 0},
		Dx:     [3]float64{dx, dy, 1},
	}
}

// New3D returns an nx-by-ny-by-nz grid covering [0,Lx]x[0,Ly]x[0,Lz].
func New3D(nx, ny, nz int, lx, ly, lz float64) *Grid {
	dx, dy, dz := lx/float64(nx), ly/float64(ny), lz/float64(nz)
	return &Grid{
		N:      [3]int{nx, ny, nz},
		Origin: [3]float64{dx / 2, dy / 2, dz / 2},
		Dx:     [3]float64{dx, dy, dz},
	}
}

// Points returns the total number of grid points.
func (g *Grid) Points() int { return g.N[0] * g.N[1] * g.N[2] }

// Index maps (i, j, k) to the flat offset (x fastest).
func (g *Grid) Index(i, j, k int) int {
	return i + g.N[0]*(j+g.N[1]*k)
}

// Coord returns the physical coordinate of point (i, j, k) on axis ax.
func (g *Grid) Coord(ax, idx int) float64 {
	return g.Origin[ax] + float64(idx)*g.Dx[ax]
}

// Active reports whether an axis has more than one point.
func (g *Grid) Active(ax int) bool { return g.N[ax] > 1 }

// ActiveAxes returns the list of axes with more than one point.
func (g *Grid) ActiveAxes() []int {
	var axes []int
	for ax := 0; ax < 3; ax++ {
		if g.Active(ax) {
			axes = append(axes, ax)
		}
	}
	return axes
}

// Line identifies a 1-D pencil along axis Ax at transverse position (J, K):
// the set of points whose transverse coordinates match. Start is the flat
// index of the first point and Stride the flat step along the axis.
type Line struct {
	Ax     int
	Start  int
	Stride int
	Len    int
}

// Lines appends all pencils along axis ax to dst.
func (g *Grid) Lines(ax int, dst []Line) []Line {
	if ax < 0 || ax > 2 {
		panic(fmt.Sprintf("grid: bad axis %d", ax))
	}
	strides := [3]int{1, g.N[0], g.N[0] * g.N[1]}
	o1, o2 := (ax+1)%3, (ax+2)%3
	for b := 0; b < g.N[o2]; b++ {
		for a := 0; a < g.N[o1]; a++ {
			start := strides[o1]*a + strides[o2]*b
			dst = append(dst, Line{Ax: ax, Start: start, Stride: strides[ax], Len: g.N[ax]})
		}
	}
	return dst
}

// Decompose splits n points into parts nearly equal blocks and returns the
// start index of each block plus the total (a prefix array of length
// parts+1).
func Decompose(n, parts int) []int {
	if parts < 1 {
		panic("grid: Decompose needs parts >= 1")
	}
	bounds := make([]int, parts+1)
	for p := 0; p <= parts; p++ {
		bounds[p] = p * n / parts
	}
	return bounds
}

// New1D returns an n-point grid covering [0, L] with cell-centered points.
func New1D(n int, l float64) *Grid {
	dx := l / float64(n)
	return &Grid{
		N:      [3]int{n, 1, 1},
		Origin: [3]float64{dx / 2, 0, 0},
		Dx:     [3]float64{dx, 1, 1},
	}
}
