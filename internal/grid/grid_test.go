package grid

import "testing"

func TestNew2DBasics(t *testing.T) {
	g := New2D(8, 4, 800, 400)
	if g.Points() != 32 {
		t.Fatalf("Points = %d", g.Points())
	}
	if g.Dx[0] != 100 || g.Dx[1] != 100 {
		t.Fatalf("Dx = %v", g.Dx)
	}
	if g.Coord(0, 0) != 50 || g.Coord(1, 3) != 350 {
		t.Fatalf("coords wrong: %g %g", g.Coord(0, 0), g.Coord(1, 3))
	}
	if !g.Active(0) || !g.Active(1) || g.Active(2) {
		t.Fatal("active axes wrong")
	}
	axes := g.ActiveAxes()
	if len(axes) != 2 || axes[0] != 0 || axes[1] != 1 {
		t.Fatalf("ActiveAxes = %v", axes)
	}
}

func TestIndexRoundTrip(t *testing.T) {
	g := New3D(3, 4, 5, 1, 1, 1)
	seen := map[int]bool{}
	for k := 0; k < 5; k++ {
		for j := 0; j < 4; j++ {
			for i := 0; i < 3; i++ {
				idx := g.Index(i, j, k)
				if idx < 0 || idx >= g.Points() || seen[idx] {
					t.Fatalf("bad index %d for (%d,%d,%d)", idx, i, j, k)
				}
				seen[idx] = true
			}
		}
	}
}

func TestLinesCoverGridExactlyOnce(t *testing.T) {
	g := New3D(4, 3, 2, 1, 1, 1)
	for ax := 0; ax < 3; ax++ {
		lines := g.Lines(ax, nil)
		count := make([]int, g.Points())
		for _, l := range lines {
			if l.Len != g.N[ax] {
				t.Fatalf("axis %d line len %d, want %d", ax, l.Len, g.N[ax])
			}
			idx := l.Start
			for i := 0; i < l.Len; i++ {
				count[idx]++
				idx += l.Stride
			}
		}
		for p, c := range count {
			if c != 1 {
				t.Fatalf("axis %d: point %d covered %d times", ax, p, c)
			}
		}
	}
}

func TestDecompose(t *testing.T) {
	b := Decompose(10, 3)
	if b[0] != 0 || b[3] != 10 {
		t.Fatalf("bounds %v", b)
	}
	total := 0
	for p := 0; p < 3; p++ {
		size := b[p+1] - b[p]
		if size < 3 || size > 4 {
			t.Fatalf("unbalanced: %v", b)
		}
		total += size
	}
	if total != 10 {
		t.Fatalf("total %d", total)
	}
}

func TestBadAxisPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New2D(2, 2, 1, 1).Lines(3, nil)
}
