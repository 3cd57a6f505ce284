package viz

import (
	"bytes"
	"strings"
	"testing"
)

func gradient(nx, ny int) *Field {
	data := make([]float64, nx*ny)
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			data[i+nx*j] = float64(i + j)
		}
	}
	return NewField(nx, ny, data)
}

func TestNewFieldValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewField(3, 3, make([]float64, 8))
}

func TestRange(t *testing.T) {
	f := gradient(4, 3)
	lo, hi := f.Range()
	if lo != 0 || hi != 5 {
		t.Fatalf("range [%g, %g]", lo, hi)
	}
}

func TestASCIIShape(t *testing.T) {
	f := gradient(6, 4)
	var buf bytes.Buffer
	f.ASCII(&buf, 0, 0)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("got %d lines", len(lines))
	}
	for _, l := range lines {
		if len(l) != 8 { // 6 cells + 2 borders
			t.Fatalf("line %q wrong width", l)
		}
	}
	// Top row (largest values) must be darker than bottom row.
	if lines[0][1] == lines[3][1] {
		t.Fatal("no shading gradient visible")
	}
}

func TestASCIIConstantField(t *testing.T) {
	f := NewField(2, 2, []float64{3, 3, 3, 3})
	var buf bytes.Buffer
	f.ASCII(&buf, 0, 0) // must not divide by zero
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}

func TestPGMHeaderAndSize(t *testing.T) {
	f := gradient(5, 3)
	var buf bytes.Buffer
	if err := f.PGM(&buf, 0, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.Bytes()
	if !bytes.HasPrefix(out, []byte("P5\n5 3\n255\n")) {
		t.Fatalf("bad header: %q", out[:12])
	}
	header := len("P5\n5 3\n255\n")
	if len(out) != header+15 {
		t.Fatalf("payload %d bytes, want 15", len(out)-header)
	}
	// First written pixel is the top-left = value at (0, ny-1) = 2 with
	// range [0, 6].
	frac := 2.0 / 6.0
	want := byte(int(frac * 255))
	if out[header] != want {
		t.Fatalf("top-left pixel %d, want %d", out[header], want)
	}
}

type failWriter struct{ after int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.after -= len(p)
	if w.after < 0 {
		return 0, errFail
	}
	return len(p), nil
}

var errFail = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "write failed" }

func TestPGMWriteErrors(t *testing.T) {
	f := gradient(4, 4)
	if err := f.PGM(&failWriter{after: 0}, 0, 0); err == nil {
		t.Fatal("expected header write error")
	}
	if err := f.PGM(&failWriter{after: 12}, 0, 0); err == nil {
		t.Fatal("expected row write error")
	}
}
