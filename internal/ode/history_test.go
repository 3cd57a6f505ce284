package ode

import (
	"testing"

	"repro/internal/control"
	"repro/internal/la"
)

func TestHistoryPushAndIndex(t *testing.T) {
	h := control.NewHistory(3, 1)
	h.Push(0, 0, la.Vec{10})
	h.Push(1, 1, la.Vec{11})
	if h.Len() != 2 {
		t.Fatalf("Len = %d", h.Len())
	}
	if h.T(0) != 1 || h.X(0)[0] != 11 {
		t.Fatalf("newest entry wrong: t=%g x=%g", h.T(0), h.X(0)[0])
	}
	if h.T(1) != 0 || h.X(1)[0] != 10 {
		t.Fatalf("older entry wrong")
	}
}

func TestHistoryWrapAround(t *testing.T) {
	h := control.NewHistory(3, 1)
	for i := 0; i < 10; i++ {
		h.Push(float64(i), 1, la.Vec{float64(100 + i)})
	}
	if h.Len() != 3 {
		t.Fatalf("Len = %d, want 3", h.Len())
	}
	for k := 0; k < 3; k++ {
		wantT := float64(9 - k)
		if h.T(k) != wantT || h.X(k)[0] != 100+wantT {
			t.Fatalf("entry %d: t=%g x=%g", k, h.T(k), h.X(k)[0])
		}
	}
}

func TestHistoryCopiesInput(t *testing.T) {
	h := control.NewHistory(2, 1)
	v := la.Vec{5}
	h.Push(0, 0, v)
	v[0] = 99
	if h.X(0)[0] != 5 {
		t.Fatal("History aliased the pushed vector")
	}
}

func TestHistoryStepSizes(t *testing.T) {
	h := control.NewHistory(4, 1)
	h.Push(0, 0, la.Vec{0})
	h.Push(0.5, 0.5, la.Vec{0})
	h.Push(1.25, 0.75, la.Vec{0})
	if h.H(0) != 0.75 || h.H(1) != 0.5 {
		t.Fatalf("step sizes wrong: %g %g", h.H(0), h.H(1))
	}
}

func TestHistoryOutOfRangePanics(t *testing.T) {
	h := control.NewHistory(2, 1)
	h.Push(0, 0, la.Vec{1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	h.T(1)
}

func TestHistoryReset(t *testing.T) {
	h := control.NewHistory(2, 1)
	h.Push(0, 0, la.Vec{1})
	h.Reset()
	if h.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestHistoryTimes(t *testing.T) {
	h := control.NewHistory(4, 1)
	h.Push(1, 1, la.Vec{0})
	h.Push(2, 1, la.Vec{0})
	ts := h.Times(nil, 2)
	if len(ts) != 2 || ts[0] != 2 || ts[1] != 1 {
		t.Fatalf("Times = %v", ts)
	}
}

// Regression: NewHistory(0, m) built an empty ring whose first Push crashed
// with an integer divide by zero; the constructor now rejects bad shapes
// with a clear message.
func TestNewHistoryValidatesArguments(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero depth":     func() { control.NewHistory(0, 1) },
		"negative depth": func() { control.NewHistory(-2, 1) },
		"negative dim":   func() { control.NewHistory(2, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
	// Dimension 0 is legal (a history of empty vectors) and must not crash.
	h := control.NewHistory(1, 0)
	h.Push(0, 0, la.Vec{})
	if h.Len() != 1 {
		t.Fatal("depth-1 dim-0 history rejected a push")
	}
}

func TestHistoryDim(t *testing.T) {
	if d := control.NewHistory(3, 5).Dim(); d != 5 {
		t.Fatalf("Dim = %d, want 5", d)
	}
}
