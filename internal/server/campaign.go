package server

import (
	"context"
	"encoding/json"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// State is a campaign's (or shard's) lifecycle state.
type State string

// The campaign lifecycle. Queued and Running are transient; Done, Failed
// and Cancelled are terminal.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// shard is one unit of campaign work: one seed's harness campaign. Its
// mutable fields are guarded by the owning campaign's mutex.
type shard struct {
	c    *campaign
	idx  int
	seed uint64

	state  State
	report *ShardReport
}

// campaign tracks one submission from acceptance to terminal state. The
// mutex guards every mutable field; notify is closed and replaced on each
// change so status pollers and event streamers can wait without spinning.
type campaign struct {
	id   string
	spec Spec // canonical
	hash string
	// ctx is derived from the server's root context; cancel tears down the
	// campaign's in-flight harness runs (DELETE, or server shutdown).
	ctx    context.Context
	cancel context.CancelFunc
	// onTerminal, when set, is invoked exactly once as the campaign enters
	// its terminal state (under c.mu, from finishLocked). The server uses
	// it to journal the transition; the hook must not take s.mu.
	onTerminal func(state State, errMsg string)

	mu         sync.Mutex
	notify     chan struct{}
	state      State
	cacheHit   bool
	shards     []*shard
	shardsDone int
	result     []byte // the encoded ResultDoc, set when state becomes StateDone
	errMsg     string
	events     []event // append-only; encoded when the stream is read
	submitted  time.Time
	finished   time.Time
}

// eventKind names what an event log entry records.
type eventKind uint8

const (
	eventSubmitted eventKind = iota
	eventShardStart
	eventShardDone
	eventTerminal
	eventTrace
)

// event is one entry of a campaign's event log, held as the values its line
// encodes rather than as the line: a finished shard's report is already
// held by its shard. Every value an entry encodes is fixed by the time the
// entry is appended — the campaign's ID, hash, shard count and cache flag,
// a shard's index, seed and report, the terminal state and message — so
// encoding it when the stream is read gives the bytes it had when appended.
type event struct {
	kind   eventKind
	cached bool   // eventShardDone: the report came from the shard cache
	sh     *shard // eventShardStart, eventShardDone
	line   []byte // eventTrace: the telemetry JSONL line
}

// appendEventLocked records one event and wakes every waiter. Caller holds
// c.mu.
func (c *campaign) appendEventLocked(ev event) {
	c.events = append(c.events, ev)
	close(c.notify)
	c.notify = make(chan struct{})
}

// encodeEvent renders one appended event as its JSONL line, without the
// newline. It reads only values that no longer change once the event is
// appended, so it needs no lock.
func (c *campaign) encodeEvent(ev event) []byte {
	switch ev.kind {
	case eventSubmitted:
		return encodeSubmittedEvent(c)
	case eventShardStart:
		return encodeShardStartEvent(ev.sh)
	case eventShardDone:
		return encodeShardDoneEvent(ev.sh, ev.cached)
	case eventTerminal:
		return encodeDoneEvent(c.state, c.cacheHit, c.errMsg)
	}
	return ev.line
}

// finishLocked moves the campaign to a terminal state, stamps the finish
// time, emits the terminal event, and cancels the campaign context so any
// straggling shard halts. Caller holds c.mu; terminal states never change
// again.
func (c *campaign) finishLocked(state State, errMsg string) {
	if c.state.Terminal() {
		return
	}
	c.state = state
	c.errMsg = errMsg
	//lint:allow walltime -- operational finish timestamp for the status API; never feeds a result byte
	c.finished = time.Now()
	c.appendEventLocked(event{kind: eventTerminal})
	if c.onTerminal != nil {
		c.onTerminal(state, errMsg)
	}
	c.cancel()
}

// wait blocks until the campaign reaches a terminal state or ctx is done.
func (c *campaign) wait(ctx context.Context) error {
	for {
		c.mu.Lock()
		terminal := c.state.Terminal()
		ch := c.notify
		c.mu.Unlock()
		if terminal {
			return nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// requestCancel cancels the campaign: the context tears down in-flight
// harness runs (they halt on the next step boundary), queued shards are
// dropped when a worker picks them up, and the campaign is terminal
// immediately.
func (c *campaign) requestCancel() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.finishLocked(StateCancelled, "cancelled by request")
}

// ShardStatus is one shard's row in the status document.
type ShardStatus struct {
	Seed  uint64 `json:"seed"`
	State State  `json:"state"`
}

// Status is the campaign status document served by GET /v1/campaigns/{id}
// and returned by POST. Timestamps are operational metadata; they never
// appear in the result document, which must stay byte-deterministic.
type Status struct {
	ID          string        `json:"id"`
	Hash        string        `json:"hash"`
	State       State         `json:"state"`
	CacheHit    bool          `json:"cache_hit"`
	Shards      []ShardStatus `json:"shards,omitempty"`
	ShardsDone  int           `json:"shards_done"`
	Error       string        `json:"error,omitempty"`
	SubmittedAt string        `json:"submitted_at,omitempty"`
	FinishedAt  string        `json:"finished_at,omitempty"`
}

// status snapshots the campaign under its lock.
func (c *campaign) status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		ID:         c.id,
		Hash:       c.hash,
		State:      c.state,
		CacheHit:   c.cacheHit,
		ShardsDone: c.shardsDone,
		Error:      c.errMsg,
	}
	if !c.submitted.IsZero() {
		st.SubmittedAt = c.submitted.UTC().Format(time.RFC3339Nano)
	}
	if !c.finished.IsZero() {
		st.FinishedAt = c.finished.UTC().Format(time.RFC3339Nano)
	}
	for _, sh := range c.shards {
		st.Shards = append(st.Shards, ShardStatus{Seed: sh.seed, State: sh.state})
	}
	return st
}

// The event stream's lifecycle records. Trace lines (telemetry.StepEvent
// JSONL, no "type" field) are interleaved between a shard's start and done
// records when the spec enables tracing; everything else carries a "type"
// discriminator.
type submittedEvent struct {
	Type     string `json:"type"` // "submitted"
	Campaign string `json:"campaign"`
	Hash     string `json:"hash"`
	Shards   int    `json:"shards"`
	CacheHit bool   `json:"cache_hit"`
}

type shardStartEvent struct {
	Type  string `json:"type"` // "shard_start"
	Shard int    `json:"shard"`
	Seed  uint64 `json:"seed"`
}

type shardDoneEvent struct {
	Type   string       `json:"type"` // "shard_done"
	Shard  int          `json:"shard"`
	Seed   uint64       `json:"seed"`
	Cached bool         `json:"cached"`
	Report *ShardReport `json:"report"`
}

type doneEvent struct {
	Type     string `json:"type"` // the terminal state: "done", "failed", "cancelled"
	State    State  `json:"state"`
	CacheHit bool   `json:"cache_hit"`
	Error    string `json:"error,omitempty"`
}

// mustJSON encodes a lifecycle event; the event structs contain no
// unmarshalable values, so an encoding error is a programming bug.
func mustJSON(v interface{}) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic("server: event encoding failed: " + err.Error())
	}
	return b
}

func encodeSubmittedEvent(c *campaign) []byte {
	return mustJSON(submittedEvent{
		Type: "submitted", Campaign: c.id, Hash: c.hash,
		Shards: len(c.spec.Seeds), CacheHit: c.cacheHit,
	})
}

func encodeShardStartEvent(sh *shard) []byte {
	return mustJSON(shardStartEvent{Type: "shard_start", Shard: sh.idx, Seed: sh.seed})
}

func encodeShardDoneEvent(sh *shard, cached bool) []byte {
	return mustJSON(shardDoneEvent{
		Type: "shard_done", Shard: sh.idx, Seed: sh.seed,
		Cached: cached, Report: sh.report,
	})
}

func encodeDoneEvent(state State, cacheHit bool, errMsg string) []byte {
	typ := string(state)
	return mustJSON(doneEvent{Type: typ, State: state, CacheHit: cacheHit, Error: errMsg})
}

// appendTraceLocked streams one shard's per-trial telemetry into the event
// feed as raw telemetry JSONL lines — the same bytes WriteJSONL would
// export — ahead of the shard's completion record. Caller holds c.mu.
func (c *campaign) appendTraceLocked(trace *telemetry.Recorder) {
	if trace == nil {
		return
	}
	trace.Do(func(ev *telemetry.StepEvent) {
		//lint:allow locksafe -- Do runs this closure synchronously inside appendTraceLocked, so the caller's c.mu (the *Locked contract) is held; the per-closure analysis cannot see across the call boundary
		c.appendEventLocked(event{kind: eventTrace, line: telemetry.AppendEvent(nil, ev)})
	})
}
