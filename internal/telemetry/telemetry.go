// Package telemetry is the step-level observability layer of the SDC
// reproduction: a per-trial step tracer, a lightweight metrics registry,
// and exporters (JSONL, CSV) for both.
//
// The paper's central claim — a corrupted stage evaluation also corrupts
// the LTE estimate, so the classic controller silently accepts bad steps
// while the double-checks catch them — is a claim about per-step internal
// state. The tracer makes that state first-class: every trial step emits
// one StepEvent carrying the classic scaled error, the double-check's
// second estimate, the detector's order-adaptation state, the
// accept/reject decision, and the injection ground truth, so detection
// behaviour can be asserted against directly instead of inferred from
// end-of-campaign rate tables.
//
// Tracing is strictly observational: recording draws no random numbers and
// performs no extra right-hand-side evaluations, so enabling it changes no
// campaign result byte. The disabled path (a nil Tracer on the integrator)
// costs one pointer comparison per trial and allocates nothing.
package telemetry

// Verdict is the outcome of one trial step, combining the classic
// controller's decision with the validator's.
type Verdict int8

// The trial outcomes, in the order the decision chain runs.
const (
	// VerdictAccept: the classic controller and the validator (if any)
	// both accepted the trial.
	VerdictAccept Verdict = iota
	// VerdictClassicReject: the classic error test rejected the trial
	// (SErr1 > 1 or non-finite).
	VerdictClassicReject
	// VerdictValidatorReject: the double-checking validator vetoed a
	// controller-accepted trial; the step recomputes at the same size.
	VerdictValidatorReject
	// VerdictFPRescue: the validator recognized its own previous rejection
	// as a false positive (identical SErr1 on recomputation) and accepted.
	VerdictFPRescue
)

// String returns the verdict's wire name, as used by the exporters.
func (v Verdict) String() string {
	switch v {
	case VerdictAccept:
		return "accept"
	case VerdictClassicReject:
		return "classic-reject"
	case VerdictValidatorReject:
		return "validator-reject"
	case VerdictFPRescue:
		return "fp-rescue"
	}
	return "unknown"
}

// Ground-truth significance labels for StepEvent.Significant.
const (
	// SigUnknown: no ground truth was computed (clean trial, or tracing
	// outside a fault-injection harness).
	SigUnknown int8 = -1
	// SigBenign: the trial was corrupted but its real scaled LTE — measured
	// against a clean recomputation — stayed within tolerance.
	SigBenign int8 = 0
	// SigSignificant: the corruption pushed the real scaled LTE beyond 1.0.
	// A significant trial that is also Accepted is the paper's dangerous
	// silent-acceptance case.
	SigSignificant int8 = 1
)

// StepEvent is one trial step's full observable state. Sentinel values
// mark fields that did not apply to the trial: SErr2, Q and C are -1 when
// no double-check ran, Significant is SigUnknown when no ground truth was
// computed.
type StepEvent struct {
	Rep      int    // replicate index within a campaign (0 outside one)
	Detector string // detector label, e.g. "ibdc" (empty outside a campaign)

	Step    int     // step index under construction (0-based)
	Attempt int     // 1-based attempt count for this step index
	T       float64 // time at the start of the step
	H       float64 // trial step size

	SErr1 float64 // the classic controller's scaled LTE estimate
	SErr2 float64 // the double-check's second scaled estimate; -1 if none
	Q     int     // detector order in force at the check; -1 if none
	C     int     // detector checks since the last order selection; -1 if none

	Verdict  Verdict
	Accepted bool

	// Injection ground truth (see ode.Trial for the exact semantics).
	Injections          int  // corruptions of solution-feeding stage evals
	StateInjections     int  // corruptions of the transient state read
	EstimateInjections  int  // corruptions of the double-check's extra eval
	InheritedCorruption bool // reused first stage was corrupted earlier
	Significant         int8 // SigUnknown / SigBenign / SigSignificant
}

// Corrupted reports whether any corruption reached the trial's proposed
// solution (directly, through the state read, or through a reused stage).
func (e *StepEvent) Corrupted() bool {
	return e.Injections > 0 || e.StateInjections > 0 || e.InheritedCorruption
}

// SilentFN reports the dangerous case: a significantly corrupted trial
// that every detector layer accepted.
func (e *StepEvent) SilentFN() bool {
	return e.Significant == SigSignificant && e.Accepted
}

// Tracer receives one StepEvent per trial step. Implementations must not
// retain ev's address past the call. A nil Tracer disables tracing at zero
// cost; implementations are not required to be safe for concurrent use —
// the campaign engine gives every replicate its own.
type Tracer interface {
	Record(ev StepEvent)
}

// DefaultCap is the ring capacity a Recorder gets when none is specified:
// large enough to hold every trial of a typical campaign cell, small
// enough (~10 MB of events) to keep tracing casual.
const DefaultCap = 1 << 16

// Recorder is a ring-buffer Tracer: it keeps the most recent Cap events
// and counts the rest as dropped. The zero value is not usable; construct
// with NewRecorder. Not safe for concurrent use — the campaign engine
// creates one per replicate and merges them deterministically in
// replicate order.
type Recorder struct {
	cap     int
	buf     []StepEvent // ring storage, grown geometrically up to cap
	head    int         // index of the oldest stored event
	n       int         // events currently stored (<= cap)
	total   uint64      // events ever recorded
	rep     int         // stamped into StepEvent.Rep on Record
	label   string      // stamped into StepEvent.Detector on Record
	stamped bool
}

// NewRecorder returns a recorder keeping the last capacity events
// (capacity <= 0 selects DefaultCap).
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCap
	}
	return &Recorder{cap: capacity}
}

// SetStamp makes every subsequently recorded event carry the given
// replicate index and detector label. The campaign engine stamps each
// replicate's recorder so merged traces stay attributable.
func (r *Recorder) SetStamp(rep int, label string) {
	r.rep, r.label, r.stamped = rep, label, true
}

// Record implements Tracer.
func (r *Recorder) Record(ev StepEvent) {
	if r.stamped {
		ev.Rep, ev.Detector = r.rep, r.label
	}
	r.push(ev)
}

// push appends ev verbatim (no stamping), overwriting the oldest event
// once the ring is full.
func (r *Recorder) push(ev StepEvent) {
	r.total++
	if r.n < r.cap {
		if r.n == len(r.buf) {
			r.grow()
		}
		r.buf[(r.head+r.n)%len(r.buf)] = ev
		r.n++
		return
	}
	r.buf[r.head] = ev
	r.head = (r.head + 1) % len(r.buf)
}

// grow doubles the ring storage (up to cap), unrolling the ring so the
// oldest event lands at index 0.
func (r *Recorder) grow() {
	newCap := 2 * len(r.buf)
	if newCap == 0 {
		newCap = 64
	}
	if newCap > r.cap {
		newCap = r.cap
	}
	buf := make([]StepEvent, newCap)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf, r.head = buf, 0
}

// Len returns the number of events currently stored.
func (r *Recorder) Len() int { return r.n }

// Dropped returns how many events the ring has overwritten.
func (r *Recorder) Dropped() uint64 { return r.total - uint64(r.n) }

// Do calls f for each stored event, oldest first, without copying the
// ring. f must not retain the pointer past the call.
func (r *Recorder) Do(f func(*StepEvent)) {
	for i := 0; i < r.n; i++ {
		f(&r.buf[(r.head+i)%len(r.buf)])
	}
}

// Events returns a copy of the stored events, oldest first.
func (r *Recorder) Events() []StepEvent {
	out := make([]StepEvent, 0, r.n)
	r.Do(func(ev *StepEvent) { out = append(out, *ev) })
	return out
}

// Merge appends other's stored events (with their original stamps) to r
// in order. Merging per-replicate recorders in replicate order yields a
// campaign trace that is bitwise identical for every worker count.
func (r *Recorder) Merge(other *Recorder) {
	if other == nil {
		return
	}
	other.Do(func(ev *StepEvent) { r.push(*ev) })
}
