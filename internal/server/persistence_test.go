package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/server/store"
)

// TestServerRestartCacheWarm pins the durable-cache half of the contract:
// a campaign run to completion before shutdown is served from disk by the
// next process — POST answers 200 (cache hit), the bytes are identical,
// and not a single shard re-runs.
func TestServerRestartCacheWarm(t *testing.T) {
	dir := t.TempDir()
	spec := baseSpec(11, 12)

	s1, ts1 := newTestServer(t, Options{PoolWorkers: 2, DataDir: dir})
	st, code := postSpec(t, ts1, spec)
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d, want 202", code)
	}
	body1, code, _ := fetchResult(t, ts1, st.ID)
	if code != http.StatusOK {
		t.Fatalf("result status %d (%s)", code, body1)
	}
	ts1.Close()
	s1.Close()

	s2, ts2 := newTestServer(t, Options{PoolWorkers: 2, DataDir: dir})
	stats := s2.Stats()
	if !stats.Durable {
		t.Fatal("restarted server does not report durable")
	}
	if stats.WarmedCampaigns != 1 || stats.WarmedShards != 2 {
		t.Fatalf("warmed %d campaigns + %d shards, want 1 + 2", stats.WarmedCampaigns, stats.WarmedShards)
	}
	if stats.Resumed != 0 {
		t.Fatalf("resumed %d campaigns, want 0 (the campaign finished before shutdown)", stats.Resumed)
	}

	st2, code := postSpec(t, ts2, spec)
	if code != http.StatusOK {
		t.Fatalf("resubmission POST status %d, want 200 (warm cache hit)", code)
	}
	if !st2.CacheHit {
		t.Fatalf("resubmission status not a cache hit: %+v", st2)
	}
	body2, code, cacheHdr := fetchResult(t, ts2, st2.ID)
	if code != http.StatusOK || cacheHdr != "hit" {
		t.Fatalf("resubmission result status %d, cache %q", code, cacheHdr)
	}
	if !bytes.Equal(body2, body1) {
		t.Errorf("restarted server served different bytes than the original run")
	}
	if got := s2.Stats().ShardsRun; got != 0 {
		t.Errorf("restarted server ran %d shards, want 0", got)
	}
}

// TestServerResumeAfterCrash is the acceptance test for the durability
// layer: a campaign interrupted mid-run (Close journals no terminal
// record, so it is crash-equivalent for resumability) is resumed by the
// next process, which re-runs exactly the shards lacking a stored report
// and serves bytes identical to an uninterrupted serial run.
func TestServerResumeAfterCrash(t *testing.T) {
	dir := t.TempDir()
	spec := baseSpec(31, 32, 33, 34)
	// Pin every shard to its MaxRuns trial budget so each takes long
	// enough (tens of milliseconds) that the "crash" lands mid-campaign.
	spec.MinInjections = 1 << 19
	spec.MaxRuns = 8000

	s1, err := New(Options{PoolWorkers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let at least one shard finish, then kill the server. One pool worker
	// runs shards serially, so the remaining shards are still pending.
	deadline := time.Now().Add(30 * time.Second)
	for c.status().ShardsDone == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no shard finished within 30s")
		}
		time.Sleep(100 * time.Microsecond)
	}
	s1.Close()

	// Count the shard reports that reached the disk before the crash.
	canon := spec
	canon.Canonicalize()
	db, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stored := 0
	for _, seed := range canon.Seeds {
		if _, ok := db.GetShard(canon.ShardKey(seed)); ok {
			stored++
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if stored == 0 || stored == len(canon.Seeds) {
		t.Fatalf("crash stored %d of %d shards; the test needs a partial campaign", stored, len(canon.Seeds))
	}

	// Restart on the same directory: the campaign resumes under its
	// original ID and completes.
	s2, ts2 := newTestServer(t, Options{PoolWorkers: 1, DataDir: dir})
	stats := s2.Stats()
	if stats.Resumed != 1 {
		t.Fatalf("resumed %d campaigns, want 1", stats.Resumed)
	}
	if _, ok := s2.Get(c.id); !ok {
		t.Fatalf("resumed server does not know campaign %s", c.id)
	}
	body, code, _ := fetchResult(t, ts2, c.id)
	if code != http.StatusOK {
		t.Fatalf("resumed result status %d (%s)", code, body)
	}

	// Byte identity with an uninterrupted serial run, and exactly the
	// missing shards re-ran.
	golden := serialResultDoc(t, spec)
	if !bytes.Equal(body, golden) {
		t.Errorf("resumed result differs from the uninterrupted serial golden\n--- resumed ---\n%s\n--- golden ---\n%s", body, golden)
	}
	stats = s2.Stats()
	if want := uint64(len(canon.Seeds) - stored); stats.ShardsRun != want {
		t.Errorf("resumed server ran %d shards, want exactly %d (the ones without a stored report)", stats.ShardsRun, want)
	}
	if stats.JournalRecords < 2 {
		t.Errorf("journal holds %d records, want at least submit + terminal", stats.JournalRecords)
	}
}

// TestServerResumeDeterministicPlan drives the resume partition directly
// through the journal: a journaled submission whose seed range overlaps an
// already-stored campaign re-runs only the genuinely new shards, assembles
// the serial-identical document, and reserves its ID against new
// submissions.
func TestServerResumeDeterministicPlan(t *testing.T) {
	dir := t.TempDir()

	// Run seeds {1,2} to completion so their shard reports are on disk.
	s1, ts1 := newTestServer(t, Options{PoolWorkers: 2, DataDir: dir})
	st, code := postSpec(t, ts1, baseSpec(1, 2))
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d", code)
	}
	if _, code, _ := fetchResult(t, ts1, st.ID); code != http.StatusOK {
		t.Fatalf("result status %d", code)
	}
	ts1.Close()
	s1.Close()

	// Journal a submission for {1,2,3,4} by hand — as if the process
	// crashed the instant after accepting it.
	wide := baseSpec(1, 2, 3, 4)
	wide.Canonicalize()
	if err := wide.Validate(); err != nil {
		t.Fatal(err)
	}
	specJSON, err := json.Marshal(wide)
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AppendSubmit("c00000099", wide.Hash(), specJSON); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	s2, ts2 := newTestServer(t, Options{PoolWorkers: 2, DataDir: dir})
	if got := s2.Stats().Resumed; got != 1 {
		t.Fatalf("resumed %d campaigns, want 1", got)
	}
	body, code, _ := fetchResult(t, ts2, "c00000099")
	if code != http.StatusOK {
		t.Fatalf("resumed result status %d (%s)", code, body)
	}
	if golden := serialResultDoc(t, baseSpec(1, 2, 3, 4)); !bytes.Equal(body, golden) {
		t.Errorf("resumed result differs from the serial golden")
	}
	if got := s2.Stats().ShardsRun; got != 2 {
		t.Errorf("resumed server ran %d shards, want 2 (seeds 1 and 2 are stored)", got)
	}

	// The journaled ID is reserved: the next submission numbers past it.
	st2, code := postSpec(t, ts2, baseSpec(500))
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("follow-up POST status %d", code)
	}
	if st2.ID != "c00000100" {
		t.Errorf("follow-up campaign ID %s, want c00000100 (past the journaled high-water mark)", st2.ID)
	}
}

// TestServerCancelledCampaignNotResumed pins the other side of the
// shutdown-vs-cancel distinction: a client DELETE journals a terminal
// record, so the campaign stays dead across restarts.
func TestServerCancelledCampaignNotResumed(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Options{PoolWorkers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	slow := baseSpec(41, 42)
	slow.MinInjections = 1 << 18
	slow.MaxRuns = 1 << 19
	c, err := s1.Submit(slow)
	if err != nil {
		t.Fatal(err)
	}
	c.requestCancel()
	if err := c.wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	s1.Close()

	s2, err := New(Options{PoolWorkers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats().Resumed; got != 0 {
		t.Fatalf("resumed %d campaigns, want 0 (the campaign was cancelled, not interrupted)", got)
	}
	if _, ok := s2.Get(c.id); ok {
		t.Fatal("cancelled campaign re-registered after restart")
	}
	if depth := s2.Stats().QueueDepth; depth != 0 {
		t.Fatalf("queue depth %d on a restart with nothing to resume", depth)
	}
}

// TestServerNarrowBubbleNotResumed pins the replay side of spec
// validation: a journaled bubble submission on a grid narrower than the
// WENO ghost width, which would panic in its first RHS evaluation, is
// failed on restart instead of run.
func TestServerNarrowBubbleNotResumed(t *testing.T) {
	dir := t.TempDir()
	spec := baseSpec(1)
	spec.Problem, spec.N = "bubble", 2
	spec.Canonicalize()
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	db, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AppendSubmit("c00000007", spec.Hash(), specJSON); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	s, err := New(Options{PoolWorkers: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, ok := s.Get("c00000007")
	if !ok {
		t.Fatal("journaled campaign not registered on restart")
	}
	if st := c.status(); st.State != StateFailed || !strings.Contains(st.Error, "ghost width") {
		t.Fatalf("journaled narrow bubble status %+v, want failed on its grid", st)
	}
	if got := s.Stats().ShardsRun; got != 0 {
		t.Fatalf("restart ran %d shards, want 0", got)
	}
}
