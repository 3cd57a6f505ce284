package server

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"repro/internal/server/store"
)

// encodeSpec renders the canonical spec for the journal. Execution hints
// are kept: they never reach a result byte (the content hash excludes
// them), but they decide how a resumed shard executes — a campaign
// submitted with eight workers resumes with eight workers.
func encodeSpec(spec Spec) ([]byte, error) {
	return json.Marshal(spec)
}

// restore rebuilds the registry from the replayed journal: every
// journaled campaign without a terminal record is re-registered under its
// original ID, its stored shards are landed immediately, and exactly the
// shards lacking a stored report come back as the pending backlog for the
// queue. Runs single-threaded from New, before the worker pool starts.
func (s *Server) restore() []*shard {
	recs := s.store.Replay()
	terminal := make(map[string]bool)
	var maxID uint64
	for _, rec := range recs {
		switch rec.Type {
		case store.RecordSubmit:
			if n, ok := parseCampaignID(rec.ID); ok && n > maxID {
				maxID = n
			}
		case store.RecordTerminal:
			terminal[rec.ID] = true
		}
	}

	var pending []*shard
	seen := make(map[string]bool)
	for _, rec := range recs {
		if rec.Type != store.RecordSubmit || terminal[rec.ID] || seen[rec.ID] {
			continue
		}
		seen[rec.ID] = true
		pending = append(pending, s.resumeCampaign(rec)...)
	}

	s.mu.Lock()
	// Resume IDs above the high-water mark so new submissions never
	// collide with a journaled campaign.
	if maxID > s.nextID {
		s.nextID = maxID
	}
	s.mu.Unlock()
	return pending
}

// resumeCampaign re-registers one journaled, non-terminal campaign and
// returns the shards it still needs run. The journaled spec is decoded,
// re-canonicalized, re-validated, and its content hash recomputed — a
// spec this process cannot reproduce exactly is failed (with a journaled
// terminal record) rather than resumed wrong.
//
// Shards whose reports are already stored land as done without running a
// replicate; a campaign with every shard stored assembles its result
// document immediately. Traced campaigns re-run every shard: the event
// stream the caller asked for cannot be replayed from stored reports.
func (s *Server) resumeCampaign(rec store.Record) []*shard {
	var spec Spec
	failMsg := ""
	if err := json.Unmarshal(rec.Spec, &spec); err != nil {
		failMsg = fmt.Sprintf("resume: journaled spec unreadable: %v", err)
	} else {
		spec.Canonicalize()
		if err := spec.Validate(); err != nil {
			failMsg = fmt.Sprintf("resume: journaled spec invalid: %v", err)
		}
	}
	hash := ""
	if failMsg == "" {
		hash = spec.Hash()
		if rec.Hash != "" && hash != rec.Hash {
			failMsg = fmt.Sprintf("resume: content hash mismatch (journaled %s, recomputed %s)", rec.Hash, hash)
		}
	}

	c := &campaign{
		id:     rec.ID,
		spec:   spec,
		hash:   hash,
		notify: make(chan struct{}),
		state:  StateQueued,
	}
	c.ctx, c.cancel = context.WithCancel(s.ctx)
	//lint:allow walltime -- operational resume timestamp for the status API; never feeds a result byte
	c.submitted = time.Now()
	s.attachJournal(c)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.resumed++

	if failMsg != "" {
		c.mu.Lock()
		c.appendEventLocked(event{kind: eventSubmitted})
		c.finishLocked(StateFailed, failMsg)
		c.mu.Unlock()
		s.registerLocked(c)
		return nil
	}

	for i, seed := range spec.Seeds {
		c.shards = append(c.shards, &shard{c: c, idx: i, seed: seed, state: StateQueued})
	}
	c.mu.Lock()
	c.appendEventLocked(event{kind: eventSubmitted})
	var missing []*shard
	if spec.Trace {
		missing = c.shards
	} else {
		for _, sh := range c.shards {
			// peekShard, not lookupShard: partitioning a resumed campaign
			// is a replay decision, not client-visible cache traffic.
			rep, ok := s.cache.peekShard(spec.ShardKey(sh.seed))
			if !ok {
				missing = append(missing, sh)
				continue
			}
			sh.state = StateDone
			sh.report = rep
			c.shardsDone++
			c.appendEventLocked(event{kind: eventShardStart, sh: sh})
			c.appendEventLocked(event{kind: eventShardDone, sh: sh, cached: true})
		}
	}
	if len(missing) == 0 {
		reports := make([]*ShardReport, len(c.shards))
		for i, sh := range c.shards {
			reports[i] = sh.report
		}
		// EncodeResult is a pure function of (spec core, seeds, reports),
		// so the assembled document is byte-identical to what the crashed
		// process would have served.
		if doc, err := EncodeResult(spec, hash, reports); err != nil {
			c.finishLocked(StateFailed, err.Error())
		} else {
			c.result = doc
			s.cache.storeCampaign(hash, doc)
			c.finishLocked(StateDone, "")
		}
		c.mu.Unlock()
		s.registerLocked(c)
		return nil
	}
	c.mu.Unlock()
	s.registerLocked(c)
	return missing
}

// parseCampaignID extracts the sequence number from a "c%08d" campaign ID.
func parseCampaignID(id string) (uint64, bool) {
	if len(id) < 2 || id[0] != 'c' {
		return 0, false
	}
	n, err := strconv.ParseUint(id[1:], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}
