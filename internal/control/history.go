package control

import (
	"fmt"

	"repro/internal/la"
)

// History is a ring buffer of recently accepted solutions
// (t_{n-k}, x_{n-k}), newest first. The double-checking estimates
// (both LIP and BDF) read previous solutions from here; its depth bounds the
// maximum usable estimate order.
type History struct {
	depth int
	n     int // number of valid entries (<= depth)
	head  int // index of newest entry
	ts    []float64
	xs    []la.Vec
}

// NewHistory returns a ring holding up to depth accepted solutions of
// dimension m. It panics unless depth >= 1 and m >= 0: a zero-depth ring
// has no slot for Push's head advance.
func NewHistory(depth, m int) *History {
	if depth < 1 {
		panic(fmt.Sprintf("control: NewHistory depth must be >= 1, got %d", depth))
	}
	if m < 0 {
		panic(fmt.Sprintf("control: NewHistory dimension must be >= 0, got %d", m))
	}
	h := &History{depth: depth}
	h.ts = make([]float64, depth)
	h.xs = make([]la.Vec, depth)
	for i := range h.xs {
		h.xs[i] = la.NewVec(m)
	}
	return h
}

// Push records an accepted solution x at time t. x is copied.
func (h *History) Push(t float64, x la.Vec) {
	// Wrap the ring index with a compare: a modulo would cost an integer
	// divide per accepted step.
	h.head++
	if h.head == h.depth {
		h.head = 0
	}
	h.ts[h.head] = t
	h.xs[h.head].CopyFrom(x)
	if h.n < h.depth {
		h.n++
	}
}

// Len returns the number of stored solutions.
func (h *History) Len() int { return h.n }

// Dim returns the dimension of the stored solutions.
func (h *History) Dim() int { return len(h.xs[0]) }

// T returns the time of the k-th newest entry (k = 0 is the most recent).
func (h *History) T(k int) float64 { return h.ts[h.idx(k)] }

// X returns the k-th newest solution. The returned vector is owned by the
// ring: it is valid until that slot is overwritten and must not be mutated.
func (h *History) X(k int) la.Vec { return h.xs[h.idx(k)] }

func (h *History) idx(k int) int {
	if k < 0 || k >= h.n {
		panic("control: History index out of range")
	}
	i := h.head - k
	if i < 0 {
		i += h.depth
	}
	return i
}

// Reset discards all stored entries.
func (h *History) Reset() {
	h.n = 0
	h.head = 0
}
