package telemetry

import (
	"math"
	"sort"
)

// Counter is a monotonically growing int64 metric.
type Counter struct{ v int64 }

// Add increases the counter by d (negative d is clamped to zero so a
// counter can never go backwards, and the sum saturates at MaxInt64 so a
// pathological merge can never wrap it negative).
func (c *Counter) Add(d int64) {
	if d > 0 {
		c.v = satAdd64(c.v, d)
	}
}

// satAdd64 returns a+b clamped to the int64 range instead of wrapping.
// Both operands are non-negative everywhere this is called.
func satAdd64(a, b int64) int64 {
	if s := a + b; s >= a {
		return s
	}
	return math.MaxInt64
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Gauge is a float64 metric holding the most recent value.
type Gauge struct{ v float64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.v = v }

// Value returns the current value.
func (g *Gauge) Value() float64 { return g.v }

// Histogram counts observations into fixed buckets. Bucket i counts
// observations v with Edges[i-1] <= v < Edges[i] (bucket 0 is the
// underflow bucket, bucket len(Edges) the overflow bucket). Fixed edges
// keep merged histograms deterministic across worker counts.
type Histogram struct {
	edges  []float64
	counts []int64
	sum    float64
	n      int64
}

// NewHistogram returns a histogram over the given ascending bucket edges.
func NewHistogram(edges []float64) *Histogram {
	e := make([]float64, len(edges))
	copy(e, edges)
	return &Histogram{edges: e, counts: make([]int64, len(e)+1)}
}

// Observe records one value. NaN observations count toward n but land in
// no bucket, so they remain visible as a bucket-sum deficit.
func (h *Histogram) Observe(v float64) {
	h.n++
	if math.IsNaN(v) {
		return
	}
	h.sum += v
	i := sort.SearchFloat64s(h.edges, v)
	//lint:allow floatcmp -- edges are exact bin boundaries; v landing on one deliberately promotes it to the bucket above
	if i < len(h.edges) && h.edges[i] == v {
		i++ // v on an edge belongs to the bucket above it
	}
	h.counts[i]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n }

// Sum returns the sum of all finite observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Buckets returns the per-bucket counts (not a copy; do not mutate).
func (h *Histogram) Buckets() []int64 { return h.counts }

// Log10Edges returns bucket edges 10^minExp, 10^(minExp+1), ..., 10^maxExp
// — the natural bucketing for step sizes and wall times, which span many
// decades.
func Log10Edges(minExp, maxExp int) []float64 {
	if maxExp < minExp {
		minExp, maxExp = maxExp, minExp
	}
	edges := make([]float64, 0, maxExp-minExp+1)
	for e := minExp; e <= maxExp; e++ {
		edges = append(edges, math.Pow(10, float64(e)))
	}
	return edges
}

// Metrics is a lightweight named-metric registry. Instruments are created
// on first use and live for the registry's lifetime. Not safe for
// concurrent use — the campaign engine gives every replicate its own
// registry and merges them in replicate order.
type Metrics struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it at zero on first use.
func (m *Metrics) Counter(name string) *Counter {
	c := m.counters[name]
	if c == nil {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it at zero on first use.
func (m *Metrics) Gauge(name string) *Gauge {
	g := m.gauges[name]
	if g == nil {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given edges
// on first use (later calls ignore edges).
func (m *Metrics) Histogram(name string, edges []float64) *Histogram {
	h := m.hists[name]
	if h == nil {
		h = NewHistogram(edges)
		m.hists[name] = h
	}
	return h
}

// Merge folds other into m: counters and histogram buckets add, gauges
// take other's value (last merge wins, mirroring the campaign merger's
// last-replicate semantics). Histograms with mismatched edges merge count
// and sum only. Merge order must be deterministic for deterministic
// results; the campaign engine merges in replicate order.
func (m *Metrics) Merge(other *Metrics) {
	if other == nil {
		return
	}
	for _, name := range sortedKeys(other.counters) {
		m.Counter(name).Add(other.counters[name].Value())
	}
	for _, name := range sortedKeys(other.gauges) {
		m.Gauge(name).Set(other.gauges[name].Value())
	}
	for _, name := range sortedKeys(other.hists) {
		oh := other.hists[name]
		m.Histogram(name, oh.edges).merge(oh)
	}
}

// merge folds other's observations into h through saturating adds.
// Mismatched bucket layouts merge count and sum only, so the totals stay
// conserved even when edges differ.
func (h *Histogram) merge(other *Histogram) {
	h.n = satAdd64(h.n, other.n)
	h.sum += other.sum
	if len(h.counts) == len(other.counts) {
		for i, c := range other.counts {
			h.counts[i] = satAdd64(h.counts[i], c)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// HistogramSnapshot is the serializable view of a Histogram.
type HistogramSnapshot struct {
	Edges   []float64 `json:"edges"`
	Buckets []int64   `json:"buckets"`
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
}

// Snapshot is the serializable view of a registry. Map keys marshal in
// sorted order, so equal registries produce byte-identical JSON.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current state.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{}
	if len(m.counters) > 0 {
		s.Counters = make(map[string]int64, len(m.counters))
		for name, c := range m.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(m.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(m.gauges))
		for name, g := range m.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(m.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(m.hists))
		for name, h := range m.hists {
			edges := make([]float64, len(h.edges))
			copy(edges, h.edges)
			buckets := make([]int64, len(h.counts))
			copy(buckets, h.counts)
			s.Histograms[name] = HistogramSnapshot{Edges: edges, Buckets: buckets, Count: h.n, Sum: h.sum}
		}
	}
	return s
}

// TimePrefix names the metrics that carry wall-clock measurements. They
// are inherently nondeterministic, so determinism comparisons drop them
// via WithoutTimings.
const TimePrefix = "time."

// WithoutTimings returns a copy of the snapshot with every "time."-
// prefixed metric removed — the deterministic portion, comparable across
// worker counts and telemetry settings.
func (s Snapshot) WithoutTimings() Snapshot {
	out := Snapshot{}
	for name, v := range s.Counters {
		if !hasTimePrefix(name) {
			if out.Counters == nil {
				out.Counters = make(map[string]int64)
			}
			out.Counters[name] = v
		}
	}
	for name, v := range s.Gauges {
		if !hasTimePrefix(name) {
			if out.Gauges == nil {
				out.Gauges = make(map[string]float64)
			}
			out.Gauges[name] = v
		}
	}
	for name, v := range s.Histograms {
		if !hasTimePrefix(name) {
			if out.Histograms == nil {
				out.Histograms = make(map[string]HistogramSnapshot)
			}
			out.Histograms[name] = v
		}
	}
	return out
}

func hasTimePrefix(name string) bool {
	return len(name) >= len(TimePrefix) && name[:len(TimePrefix)] == TimePrefix
}
