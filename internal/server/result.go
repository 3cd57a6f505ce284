package server

import (
	"bytes"
	"encoding/json"

	"repro/internal/harness"
)

// ShardReport is the deterministic outcome of one shard: the canonical
// (timing-free, scheduling-free) portion of the harness result for one
// seed. Every field is worker-count invariant, so the report is
// byte-stable across engine shapes and safe to content-address.
type ShardReport struct {
	Seed       uint64        `json:"seed"`
	Rates      harness.Rates `json:"rates"`
	FPRPct     float64       `json:"fpr_pct"`
	TPRPct     float64       `json:"tpr_pct"`
	SFNRPct    float64       `json:"sfnr_pct"`
	MeanOrder  float64       `json:"mean_order,omitempty"`
	Steps      int           `json:"steps"`
	TrialSteps int           `json:"trial_steps"`
	Evals      int64         `json:"evals"`
	MemVectors float64       `json:"mem_vectors,omitempty"`
}

// newShardReport distills a harness result into its shard report via
// Result.Canonical, dropping every nondeterministic field.
func newShardReport(seed uint64, res *harness.Result) *ShardReport {
	c := res.Canonical()
	return &ShardReport{
		Seed:       seed,
		Rates:      c.Rates,
		FPRPct:     c.Rates.FPR(),
		TPRPct:     c.Rates.TPR(),
		SFNRPct:    c.Rates.SFNR(),
		MeanOrder:  c.MeanOrder,
		Steps:      c.Steps,
		TrialSteps: c.TrialSteps,
		Evals:      c.Evals,
		MemVectors: c.MemVectors,
	}
}

// Totals aggregates the shard reports of one campaign: rates merge through
// the harness's saturating Rates.Add, counters sum, and the headline
// percentages are recomputed from the merged tallies (not averaged — the
// across-seed pooled rates, exactly what a single longer campaign over the
// union of the seed substreams would report).
type Totals struct {
	Rates      harness.Rates `json:"rates"`
	FPRPct     float64       `json:"fpr_pct"`
	TPRPct     float64       `json:"tpr_pct"`
	SFNRPct    float64       `json:"sfnr_pct"`
	Steps      int           `json:"steps"`
	TrialSteps int           `json:"trial_steps"`
	Evals      int64         `json:"evals"`
}

// ResultDoc is the merged campaign report served by
// GET /v1/campaigns/{id}/result: the canonical spec, its content hash, the
// per-seed shard reports in seed-list order, and the pooled totals. Its
// JSON encoding is deterministic (fixed struct order, no maps), which is
// the byte-identity the contract tests pin against the committed serial
// harness golden.
type ResultDoc struct {
	Hash   string         `json:"hash"`
	Spec   Spec           `json:"spec"`
	Shards []*ShardReport `json:"shards"`
	Totals Totals         `json:"totals"`
}

// EncodeResult renders the campaign's result document. The bytes are a
// pure function of (spec core, seeds) — the determinism guarantee of the
// harness lifted to the wire — so a cached document can be served verbatim
// for any later identical submission. To keep that purity, the embedded
// spec is scrubbed of its execution hints (workers, trace): two
// submissions that differ only in engine shape produce one document.
func EncodeResult(spec Spec, hash string, shards []*ShardReport) ([]byte, error) {
	spec.Workers, spec.Trace, spec.TraceCap = 0, false, 0
	var tot Totals
	for _, sh := range shards {
		tot.Rates.Add(sh.Rates)
		tot.Steps += sh.Steps
		tot.TrialSteps += sh.TrialSteps
		tot.Evals += sh.Evals
	}
	tot.FPRPct = tot.Rates.FPR()
	tot.TPRPct = tot.Rates.TPR()
	tot.SFNRPct = tot.Rates.SFNR()
	doc := ResultDoc{Hash: hash, Spec: spec, Shards: shards, Totals: tot}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
