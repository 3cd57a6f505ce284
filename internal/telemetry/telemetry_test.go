package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func ev(step int) StepEvent {
	return StepEvent{Step: step, Attempt: 1, T: float64(step), H: 0.5, SErr1: 0.25, SErr2: -1, Q: -1, C: -1}
}

func TestRecorderKeepsOrderBelowCapacity(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 5; i++ {
		r.Record(ev(i))
	}
	if r.Len() != 5 || r.Dropped() != 0 {
		t.Fatalf("Len=%d Dropped=%d, want 5/0", r.Len(), r.Dropped())
	}
	for i, e := range r.Events() {
		if e.Step != i {
			t.Fatalf("event %d has Step=%d", i, e.Step)
		}
	}
}

func TestRecorderWrapDropsOldest(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Record(ev(i))
	}
	if r.Len() != 4 || r.Dropped() != 6 {
		t.Fatalf("Len=%d Dropped=%d, want 4/6", r.Len(), r.Dropped())
	}
	got := r.Events()
	for i, e := range got {
		if want := 6 + i; e.Step != want {
			t.Fatalf("event %d has Step=%d, want %d (most recent window)", i, e.Step, want)
		}
	}
}

func TestRecorderGrowsGeometrically(t *testing.T) {
	r := NewRecorder(1 << 20)
	r.Record(ev(0))
	if len(r.buf) != 64 {
		t.Fatalf("initial ring storage = %d, want 64", len(r.buf))
	}
	for i := 1; i < 100; i++ {
		r.Record(ev(i))
	}
	if len(r.buf) != 128 {
		t.Fatalf("ring storage after 100 events = %d, want 128", len(r.buf))
	}
	for i, e := range r.Events() {
		if e.Step != i {
			t.Fatalf("grow lost ordering: event %d has Step=%d", i, e.Step)
		}
	}
}

func TestRecorderStamp(t *testing.T) {
	r := NewRecorder(4)
	r.SetStamp(7, "ibdc")
	r.Record(ev(0))
	e := r.Events()[0]
	if e.Rep != 7 || e.Detector != "ibdc" {
		t.Fatalf("stamp not applied: Rep=%d Detector=%q", e.Rep, e.Detector)
	}
}

func TestRecorderMergePreservesStamps(t *testing.T) {
	a := NewRecorder(8)
	a.SetStamp(0, "lbdc")
	a.Record(ev(0))

	b := NewRecorder(8)
	b.SetStamp(1, "ibdc")
	b.Record(ev(0))
	b.Record(ev(1))

	// The merged recorder has its own stamp; merged events must keep theirs.
	m := NewRecorder(8)
	m.SetStamp(99, "merged")
	m.Merge(a)
	m.Merge(b)
	m.Merge(nil) // no-op

	got := m.Events()
	if len(got) != 3 {
		t.Fatalf("merged %d events, want 3", len(got))
	}
	wantRep := []int{0, 1, 1}
	wantDet := []string{"lbdc", "ibdc", "ibdc"}
	for i, e := range got {
		if e.Rep != wantRep[i] || e.Detector != wantDet[i] {
			t.Fatalf("event %d stamped (%d, %q), want (%d, %q)", i, e.Rep, e.Detector, wantRep[i], wantDet[i])
		}
	}
}

func TestStepEventHelpers(t *testing.T) {
	var e StepEvent
	e.Significant = SigUnknown
	if e.Corrupted() || e.SilentFN() {
		t.Fatal("zero event must be clean")
	}
	e.InheritedCorruption = true
	if !e.Corrupted() {
		t.Fatal("inherited corruption must count as corrupted")
	}
	e.Significant, e.Accepted = SigSignificant, true
	if !e.SilentFN() {
		t.Fatal("significant + accepted must be a silent FN")
	}
	e.Accepted = false
	if e.SilentFN() {
		t.Fatal("rejected trial is never a silent FN")
	}
}

func TestVerdictStrings(t *testing.T) {
	want := map[Verdict]string{
		VerdictAccept:          "accept",
		VerdictClassicReject:   "classic-reject",
		VerdictValidatorReject: "validator-reject",
		VerdictFPRescue:        "fp-rescue",
		Verdict(42):            "unknown",
	}
	for v, s := range want {
		if v.String() != s {
			t.Errorf("Verdict(%d).String() = %q, want %q", v, v.String(), s)
		}
	}
}

func TestCounterNeverDecreases(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	c.Add(1)
	if c.Value() != 6 {
		t.Fatalf("counter = %d, want 6 (negative Add must be a no-op)", c.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 50, 100, 500} {
		h.Observe(v)
	}
	// Bucket i counts edges[i-1] <= v < edges[i]; a value on an edge goes up.
	want := []int64{1, 2, 2, 2}
	for i, w := range want {
		if h.Buckets()[i] != w {
			t.Fatalf("buckets = %v, want %v", h.Buckets(), want)
		}
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d, want 7", h.Count())
	}
}

func TestHistogramNaN(t *testing.T) {
	h := NewHistogram([]float64{1})
	h.Observe(math.NaN())
	h.Observe(0.5)
	if h.Count() != 2 {
		t.Fatalf("count = %d, want 2 (NaN counts)", h.Count())
	}
	var inBuckets int64
	for _, c := range h.Buckets() {
		inBuckets += c
	}
	if inBuckets != 1 {
		t.Fatalf("bucketed = %d, want 1 (NaN lands in no bucket)", inBuckets)
	}
	if h.Sum() != 0.5 {
		t.Fatalf("sum = %g, want 0.5 (NaN excluded)", h.Sum())
	}
}

func TestLog10Edges(t *testing.T) {
	edges := Log10Edges(-2, 1)
	want := []float64{0.01, 0.1, 1, 10}
	if len(edges) != len(want) {
		t.Fatalf("edges = %v, want %v", edges, want)
	}
	for i := range want {
		if math.Abs(edges[i]-want[i]) > 1e-15*want[i] {
			t.Fatalf("edges = %v, want %v", edges, want)
		}
	}
	if got := Log10Edges(1, -2); len(got) != 4 {
		t.Fatalf("swapped-arg edges = %v, want 4 edges", got)
	}
}

func TestMetricsMerge(t *testing.T) {
	a := NewMetrics()
	a.Counter("steps").Add(10)
	a.Gauge("speedup").Set(2)
	a.Histogram("h", []float64{1}).Observe(0.5)

	b := NewMetrics()
	b.Counter("steps").Add(5)
	b.Counter("rejects").Add(1)
	b.Gauge("speedup").Set(3)
	b.Histogram("h", []float64{1}).Observe(2)

	a.Merge(b)
	a.Merge(nil) // no-op

	if got := a.Counter("steps").Value(); got != 15 {
		t.Fatalf("merged steps = %d, want 15", got)
	}
	if got := a.Counter("rejects").Value(); got != 1 {
		t.Fatalf("merged rejects = %d, want 1", got)
	}
	if got := a.Gauge("speedup").Value(); got != 3 {
		t.Fatalf("merged gauge = %g, want 3 (last wins)", got)
	}
	h := a.Histogram("h", nil)
	if h.Count() != 2 || h.Buckets()[0] != 1 || h.Buckets()[1] != 1 {
		t.Fatalf("merged histogram: count=%d buckets=%v", h.Count(), h.Buckets())
	}
}

func TestMetricsMergeMismatchedEdges(t *testing.T) {
	a := NewMetrics()
	a.Histogram("h", []float64{1}).Observe(0.5)
	b := NewMetrics()
	b.Histogram("h", []float64{1, 2, 3}).Observe(2.5)
	a.Merge(b)
	h := a.Histogram("h", nil)
	if h.Count() != 2 {
		t.Fatalf("count = %d, want 2 (count still merges)", h.Count())
	}
	if h.Sum() != 3.0 {
		t.Fatalf("sum = %g, want 3 (sum still merges)", h.Sum())
	}
	var inBuckets int64
	for _, c := range h.Buckets() {
		inBuckets += c
	}
	if inBuckets != 1 {
		t.Fatalf("bucketed = %d, want 1 (mismatched buckets not merged)", inBuckets)
	}
}

func TestSnapshotDeterministicJSON(t *testing.T) {
	build := func() *Metrics {
		m := NewMetrics()
		for _, name := range []string{"z", "a", "m", "q", "b"} {
			m.Counter(name).Add(1)
			m.Gauge("g-" + name).Set(1)
		}
		return m
	}
	j1, err := json.Marshal(build().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := json.Marshal(build().Snapshot())
	if !bytes.Equal(j1, j2) {
		t.Fatalf("snapshot JSON not deterministic:\n%s\n%s", j1, j2)
	}
}

func TestSnapshotWithoutTimings(t *testing.T) {
	m := NewMetrics()
	m.Counter("steps").Add(1)
	m.Gauge(TimePrefix + "wall_seconds").Set(1.5)
	m.Histogram(TimePrefix+"replicate_seconds", []float64{1}).Observe(0.5)
	s := m.Snapshot().WithoutTimings()
	if len(s.Counters) != 1 || s.Counters["steps"] != 1 {
		t.Fatalf("counters = %v", s.Counters)
	}
	if len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("timing metrics survived: gauges=%v hists=%v", s.Gauges, s.Histograms)
	}
}

func TestWriteJSONLHandlesNonFinite(t *testing.T) {
	r := NewRecorder(4)
	e := ev(0)
	e.SErr1 = math.Inf(1)
	e.SErr2 = math.NaN()
	r.Record(e)
	r.Record(ev(1))

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var first map[string]interface{}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 is not valid JSON: %v\n%s", err, lines[0])
	}
	if first["serr1"] != nil || first["serr2"] != nil {
		t.Fatalf("non-finite floats must export as null, got serr1=%v serr2=%v", first["serr1"], first["serr2"])
	}
	var second map[string]interface{}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if second["serr1"] != 0.25 || second["verdict"] != "accept" {
		t.Fatalf("line 1 fields wrong: %v", second)
	}
}

func TestWriteCSV(t *testing.T) {
	r := NewRecorder(4)
	r.SetStamp(3, "ibdc")
	r.Record(ev(0))
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want header + 1 row", len(lines))
	}
	if lines[0] != CSVHeader {
		t.Fatalf("header = %q, want %q", lines[0], CSVHeader)
	}
	if nCols := strings.Count(lines[1], ",") + 1; nCols != strings.Count(CSVHeader, ",")+1 {
		t.Fatalf("row has %d columns, header has %d", nCols, strings.Count(CSVHeader, ",")+1)
	}
	if !strings.HasPrefix(lines[1], "3,ibdc,") {
		t.Fatalf("row = %q, want rep/detector stamp first", lines[1])
	}
}

func TestMetricsWriteJSONValid(t *testing.T) {
	m := NewMetrics()
	m.Counter("steps").Add(3)
	m.Gauge("bad").Set(math.Inf(1)) // must be sanitized, not break the document
	m.Histogram("h", []float64{1, 10}).Observe(5)
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("WriteJSON emitted invalid JSON: %v\n%s", err, buf.String())
	}
}

func TestMetricsWriteCSV(t *testing.T) {
	m := NewMetrics()
	m.Counter("steps").Add(3)
	m.Gauge("speedup").Set(1.5)
	m.Histogram("h", []float64{1}).Observe(0.5)
	var buf bytes.Buffer
	if err := m.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "kind,name,value\n") {
		t.Fatalf("missing header:\n%s", out)
	}
	for _, want := range []string{"counter,steps,3", "gauge,speedup,1.5", "histogram,h.count,1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

// TestAppendEventMatchesWriteJSONL pins the streaming hook to the
// committed JSONL wire format: concatenating AppendEvent over the stored
// events (one '\n' per event) must reproduce WriteJSONL byte for byte, so
// a consumer of the live stream and a reader of an exported trace file see
// identical bytes.
func TestAppendEventMatchesWriteJSONL(t *testing.T) {
	r := NewRecorder(8)
	r.SetStamp(3, "ibdc")
	for i := 0; i < 5; i++ {
		e := ev(i)
		if i == 2 {
			e.SErr2 = math.Inf(1)
		}
		r.Record(e)
	}
	var want bytes.Buffer
	if err := r.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	var got []byte
	r.Do(func(e *StepEvent) {
		got = AppendEvent(got, e)
		got = append(got, '\n')
	})
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("AppendEvent stream diverges from WriteJSONL:\n%s\nvs\n%s", got, want.Bytes())
	}
}
