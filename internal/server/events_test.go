package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/server/store"
)

// fetchEvents returns a campaign's ?follow=false event snapshot.
func fetchEvents(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/events?follow=false")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestServerEventsGolden pins the event stream byte for byte, shard
// reports included, for the three ways a campaign fills its log: a fresh
// run, a cache-hit resubmission, and a resume from a journaled submission
// with one shard already stored. One pool worker fixes the order. Regenerate
// deliberately with:
//
//	go test ./internal/server -run EventsGolden -update
func TestServerEventsGolden(t *testing.T) {
	dir := t.TempDir()
	var golden bytes.Buffer
	section := func(label string, events []byte) {
		fmt.Fprintf(&golden, "# %s\n", label)
		golden.Write(events)
	}

	s1, ts1 := newTestServer(t, Options{PoolWorkers: 1, DataDir: dir})
	spec := baseSpec(20170905, 20170906)
	st, code := postSpec(t, ts1, spec)
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d, want 202", code)
	}
	if body, code, _ := fetchResult(t, ts1, st.ID); code != http.StatusOK {
		t.Fatalf("result status %d (%s)", code, body)
	}
	section("fresh", fetchEvents(t, ts1, st.ID))

	st, code = postSpec(t, ts1, spec)
	if code != http.StatusOK || !st.CacheHit {
		t.Fatalf("resubmission: POST status %d cache hit %v, want 200 hit", code, st.CacheHit)
	}
	section("cache hit", fetchEvents(t, ts1, st.ID))
	ts1.Close()
	s1.Close()

	// Journal a submission whose first seed is stored and second is not,
	// as if the process crashed the instant after accepting it.
	wide := baseSpec(20170906, 20170907)
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

	s2, ts2 := newTestServer(t, Options{PoolWorkers: 1, DataDir: dir})
	if got := s2.Stats().Resumed; got != 1 {
		t.Fatalf("resumed %d campaigns, want 1", got)
	}
	if body, code, _ := fetchResult(t, ts2, "c00000099"); code != http.StatusOK {
		t.Fatalf("resumed result status %d (%s)", code, body)
	}
	if got := s2.Stats().ShardsRun; got != 1 {
		t.Fatalf("resumed server ran %d shards, want 1", got)
	}
	section("resumed", fetchEvents(t, ts2, "c00000099"))

	checkGolden(t, "events.golden", golden.Bytes())
}
