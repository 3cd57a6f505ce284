package batch

import (
	"math"
	"testing"

	"repro/internal/control"
	"repro/internal/ode"
	"repro/internal/telemetry"
)

// FuzzBatchCompaction fuzzes the retirement bookkeeping of the driver with
// adversarial accept/reject/rescue patterns: each lane's validator verdicts
// are scripted directly from the fuzz input, lane spans differ so lanes
// retire at different rounds, and MaxTrials is small so scripted rejection
// storms drive lanes into failure-retirement mid-run. Whatever the pattern,
// the round must never mix lanes, drop a replicate, or double-step one —
// checked both directly (per-lane step/attempt sequencing invariants on the
// event stream) and against the serial oracle (bitwise trajectory, counter,
// error and event equality per lane).

// scriptedValidator replays verdicts from a byte script: 0 accepts,
// 1 rejects, 2 rescues, 3 accepts; an exhausted script always accepts (so
// every run terminates in at most steps+len(script) trials).
type scriptedValidator struct {
	script []byte
	pos    int
}

func (v *scriptedValidator) Validate(*control.CheckContext) control.Verdict {
	if v.pos >= len(v.script) {
		return control.VerdictAccept
	}
	b := v.script[v.pos]
	v.pos++
	switch b % 4 {
	case 1:
		return control.VerdictReject
	case 2:
		return control.VerdictFPRescue
	}
	return control.VerdictAccept
}

// fuzzLane is one lane's deterministic inputs decoded from the fuzz data.
type fuzzLane struct {
	tEnd   float64
	script []byte
}

// decodeLanes splits the fuzz input into per-lane spans and verdict
// scripts: byte 0 picks the width, byte 1+i scales lane i's tEnd, and the
// remaining bytes are dealt round-robin so each lane gets its own script.
func decodeLanes(data []byte) []fuzzLane {
	if len(data) < 2 {
		return nil
	}
	width := 1 + int(data[0]%8)
	if len(data) < 1+width {
		return nil
	}
	lanes := make([]fuzzLane, width)
	rest := data[1+width:]
	for i := range lanes {
		lanes[i].tEnd = 0.25 + 0.25*float64(data[1+i]%12)
		for j := i; j < len(rest); j += width {
			lanes[i].script = append(lanes[i].script, rest[j])
		}
	}
	return lanes
}

// checkSequencing asserts the no-drop/no-double-step invariants directly on
// one lane's event stream: step indices advance by exactly one per accepted
// trial and never otherwise, and attempts count 1, 2, ... within each step.
func checkSequencing(t *testing.T, lane int, events []telemetry.StepEvent) {
	t.Helper()
	step, attempt := 0, 0
	for k, ev := range events {
		attempt++
		if ev.Step != step || ev.Attempt != attempt {
			t.Fatalf("lane %d event %d: got step=%d attempt=%d, want step=%d attempt=%d",
				lane, k, ev.Step, ev.Attempt, step, attempt)
		}
		if ev.Accepted {
			step++
			attempt = 0
		}
	}
}

func FuzzBatchCompaction(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3})
	f.Add([]byte{7, 0, 1, 2, 3, 4, 5, 6, 7, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	f.Add([]byte{0, 5, 2, 2, 2, 2, 0, 0, 1, 1})
	f.Add([]byte{4, 11, 1, 6, 3, 1, 0, 2, 1, 0, 2, 1, 0, 2, 1, 0, 2})
	f.Add([]byte{1, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	// Lane 0 is dealt only rejections and fails on its first
	// step with ErrTooManyTrials; lane 1 is dealt accepts and runs on.
	f.Add([]byte{1, 3, 11, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		lanes := decodeLanes(data)
		if lanes == nil {
			return
		}
		p := testProblem()
		tab := ode.HeunEuler()
		// MaxTrials is tight so scripted rejection storms retire lanes via
		// ErrTooManyTrials while their neighbours keep stepping. The
		// driver's Config does not carry it, so it goes onto each lane's
		// integrator.
		const maxSteps, maxTrials = 1 << 12, 12

		bi := New(Config{
			Tab: tab, Ctrl: control.DefaultController(p.TolA, p.TolR),
			MaxSteps: maxSteps, MaxStep: p.MaxStep,
		}, len(lanes), len(p.X0))
		refs := make([]*Lane, len(lanes))
		recs := make([]*telemetry.Recorder, len(lanes))
		for i, fl := range lanes {
			recs[i] = telemetry.NewRecorder(1 << 14)
			refs[i] = bi.AddLane(LaneConfig{
				Sys:       p.SysInstance(),
				Validator: &scriptedValidator{script: fl.script},
				T0:        p.T0, TEnd: fl.tEnd, X0: p.X0, H0: p.H0,
			})
			refs[i].in.Tracer, refs[i].in.MaxTrials = recs[i], maxTrials
		}
		drain(bi)

		for i, fl := range lanes {
			events := recs[i].Events()
			checkSequencing(t, i, events)

			// The serial oracle for this lane, with a fresh script replay.
			rec := telemetry.NewRecorder(1 << 14)
			in := &ode.Integrator{
				Tab: tab, Ctrl: control.DefaultController(p.TolA, p.TolR),
				Validator: &scriptedValidator{script: fl.script},
				Tracer:    rec,
				MaxSteps:  maxSteps, MaxTrials: maxTrials, MaxStep: p.MaxStep,
			}
			in.Init(p.SysInstance(), p.T0, fl.tEnd, p.X0, p.H0)
			_, runErr := in.Run()
			want := laneResult{err: runErr, stats: in.Stats,
				tBits: math.Float64bits(in.T()), xBits: bitsOf(in.X()), events: rec.Events()}
			ln := refs[i]
			got := laneResult{err: ln.err, stats: ln.Stats(),
				tBits: math.Float64bits(ln.in.T()), xBits: bitsOf(ln.in.X()), events: events}
			compareLane(t, i, want, got)
		}
	})
}
