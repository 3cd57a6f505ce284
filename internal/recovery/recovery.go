// Package recovery provides checkpoint/rollback correction for the cases
// double-checking cannot fix in place: an SDC that slips past every
// detector and only manifests later, when the corrupted trajectory leaves
// the stability region and the integration fails (§II-B's divergence
// scenario). A Manager snapshots the solver state every few accepted steps;
// RunWithRecovery restarts a failed integration from the newest checkpoint.
//
// Because the paper's SDCs are nonsystematic (§II-A), a restarted segment
// recomputes with fresh randomness and will almost surely not fail the same
// way, so a bounded number of restarts recovers the run.
package recovery

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/control"
	"repro/internal/la"
	"repro/internal/ode"
)

// Snapshot is one recoverable solver state.
type Snapshot struct {
	Step int
	T    float64
	H    float64
	X    la.Vec
}

// Manager retains the most recent snapshots, oldest first.
type Manager struct {
	Interval int // accepted steps between checkpoints (default 10)
	Depth    int // snapshots retained (default 2)

	snaps []Snapshot
}

// NewManager returns a manager with the given cadence.
func NewManager(interval, depth int) *Manager {
	if interval <= 0 {
		interval = 10
	}
	if depth <= 0 {
		depth = 2
	}
	return &Manager{Interval: interval, Depth: depth}
}

// Observe is called after every accepted step; it snapshots the state every
// Interval steps, evicting the oldest snapshot beyond Depth. x is copied.
func (m *Manager) Observe(step int, t, h float64, x la.Vec) {
	if m.Interval <= 0 {
		m.Interval = 10
	}
	if m.Depth <= 0 {
		m.Depth = 2
	}
	if step%m.Interval != 0 {
		return
	}
	m.snaps = append(m.snaps, Snapshot{Step: step, T: t, H: h, X: x.Clone()})
	if len(m.snaps) > m.Depth {
		m.snaps = m.snaps[1:]
	}
}

// Len returns the number of retained snapshots.
func (m *Manager) Len() int { return len(m.snaps) }

// Latest returns the newest snapshot.
func (m *Manager) Latest() (Snapshot, bool) {
	if len(m.snaps) == 0 {
		return Snapshot{}, false
	}
	return m.snaps[len(m.snaps)-1], true
}

// Drop discards the newest snapshot (used when a restart from it failed
// again and an older state is needed).
func (m *Manager) Drop() {
	if len(m.snaps) == 0 {
		return
	}
	m.snaps = m.snaps[:len(m.snaps)-1]
}

// ErrUnrecoverable is returned when the restart budget is exhausted.
var ErrUnrecoverable = errors.New("recovery: restart budget exhausted")

// RunWithRecovery drives the integrator to tEnd, checkpointing through m
// and restarting after failures with an escalating rollback: every failure
// discards the newest checkpoint before restarting from the next one, so
// repeated failures walk monotonically back toward a state taken before
// the (possibly long-undetected) corruption. While re-running a previously
// failed segment, no new checkpoints are recorded until the integrator has
// passed the failure frontier — otherwise the ring would refill with
// states from the corrupted trajectory and evict the good ones.
//
// The integrator must already be configured (tableau, controller, hooks,
// validator); Init is called here. It returns the number of restarts used.
func RunWithRecovery(in *ode.Integrator, sys control.System, t0, tEnd float64, x0 la.Vec, h0 float64, m *Manager, maxRestarts int) (int, error) {
	if m == nil {
		m = NewManager(0, 0)
	}
	in.Init(sys, t0, tEnd, x0, h0)
	m.Observe(0, t0, h0, x0)
	restarts := 0
	failT := t0 // failure frontier: checkpoints resume beyond it
	proven := true
	consecFails := 0
	for !in.Done() {
		err := in.Step()
		if err == nil {
			if !proven && in.T() > failT {
				proven = true
				consecFails = 0
			}
			if proven {
				m.Observe(in.Stats.Steps, in.T(), in.StepSize(), in.X())
			}
			continue
		}
		// The integration failed — walk back and restart. Consecutive
		// failures without passing the frontier discard exponentially many
		// checkpoints, so a long stretch of corrupted snapshots is skipped
		// in O(log) restarts.
		if in.T() > failT {
			failT = in.T()
		}
		proven = false
		drop := 1
		if consecFails > 0 && consecFails < 20 {
			drop = 1 << consecFails
		} else if consecFails >= 20 {
			drop = 1 << 20
		}
		consecFails++
		for i := 0; i < drop && m.Len() > 1; i++ {
			m.Drop()
		}
		snap, ok := m.Latest()
		if !ok || restarts >= maxRestarts {
			return restarts, fmt.Errorf("%w: last error: %v", ErrUnrecoverable, err)
		}
		restarts++
		in.Init(sys, snap.T, tEnd, snap.X, snap.H)
	}
	return restarts, nil
}

// SaveSnapshot serializes a snapshot with encoding/gob so long campaigns
// can survive process restarts, not just in-memory rollbacks.
func SaveSnapshot(w io.Writer, s Snapshot) error {
	return gob.NewEncoder(w).Encode(s)
}

// LoadSnapshot reads a snapshot written by SaveSnapshot.
func LoadSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	err := gob.NewDecoder(r).Decode(&s)
	return s, err
}

// SaveFile writes the manager's newest snapshot to path atomically
// (write to a temporary file, then rename).
func (m *Manager) SaveFile(path string) error {
	snap, ok := m.Latest()
	if !ok {
		return errors.New("recovery: no snapshot to save")
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := SaveSnapshot(f, snap); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile reads a snapshot file and seeds the manager with it.
func (m *Manager) LoadFile(path string) (Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return Snapshot{}, err
	}
	defer f.Close()
	snap, err := LoadSnapshot(f)
	if err != nil {
		return Snapshot{}, err
	}
	m.snaps = append(m.snaps, snap)
	return snap, nil
}
