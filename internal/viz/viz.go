// Package viz renders 2-D scalar fields for the figure outputs: ASCII
// shading for terminals (the examples) and PGM images for offline
// inspection of Figure 2's density-perturbation contours.
package viz

import (
	"fmt"
	"io"
	"math"

	"repro/internal/la"
)

// Field is a row-major 2-D scalar field (row 0 at the bottom, matching the
// grid package's vertical axis).
type Field struct {
	Nx, Ny int
	Data   []float64 // len Nx*Ny, index i + Nx*j
}

// NewField wraps data; it panics on size mismatch.
func NewField(nx, ny int, data []float64) *Field {
	if len(data) != nx*ny {
		panic(fmt.Sprintf("viz: field size %d != %d*%d", len(data), nx, ny))
	}
	return &Field{Nx: nx, Ny: ny, Data: data}
}

// At returns the value at (i, j).
func (f *Field) At(i, j int) float64 { return f.Data[i+f.Nx*j] }

// Range returns the minimum and maximum values.
func (f *Field) Range() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range f.Data {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return
}

// ASCII writes a shaded rendering (top row first) using ten gray levels
// over [lo, hi]. Pass lo == hi to auto-scale.
func (f *Field) ASCII(w io.Writer, lo, hi float64) {
	if la.ExactEq(lo, hi) {
		lo, hi = f.Range()
		if la.ExactEq(lo, hi) {
			hi = lo + 1
		}
	}
	shades := []byte(" .:-=+*#%@")
	for j := f.Ny - 1; j >= 0; j-- {
		line := make([]byte, f.Nx)
		for i := 0; i < f.Nx; i++ {
			frac := (f.At(i, j) - lo) / (hi - lo)
			k := int(frac * float64(len(shades)-1))
			if k < 0 {
				k = 0
			}
			if k >= len(shades) {
				k = len(shades) - 1
			}
			line[i] = shades[k]
		}
		fmt.Fprintf(w, "|%s|\n", line)
	}
}

// PGM writes the field as a binary PGM (P5) image, top row first, scaled
// over [lo, hi] (auto-scale when equal). PGM is stdlib-free and opens in
// any image viewer, so Figure 2's panels can be inspected directly.
func (f *Field) PGM(w io.Writer, lo, hi float64) error {
	if la.ExactEq(lo, hi) {
		lo, hi = f.Range()
		if la.ExactEq(lo, hi) {
			hi = lo + 1
		}
	}
	if _, err := fmt.Fprintf(w, "P5\n%d %d\n255\n", f.Nx, f.Ny); err != nil {
		return err
	}
	row := make([]byte, f.Nx)
	for j := f.Ny - 1; j >= 0; j-- {
		for i := 0; i < f.Nx; i++ {
			frac := (f.At(i, j) - lo) / (hi - lo)
			v := int(frac * 255)
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			row[i] = byte(v)
		}
		if _, err := w.Write(row); err != nil {
			return err
		}
	}
	return nil
}
