package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

// The contract test pins the full API round-trip — submit, status, events,
// result — and proves the headline claim: the bytes served by
// GET /v1/campaigns/{id}/result are identical to a committed golden
// generated through the *serial* harness path, even though the server runs
// the campaign through a parallel batched engine. Regenerate deliberately
// with:
//
//	go test ./internal/server -run Contract -update

var update = flag.Bool("update", false, "rewrite golden files")

// serialResultDoc produces the reference bytes for a spec by running every
// shard through harness.Run with the serial engine (Workers=1, Batch=0) —
// no server, no queue, no cache — and encoding the merged document.
func serialResultDoc(t *testing.T, spec Spec) []byte {
	t.Helper()
	spec.Canonicalize()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	serial := spec
	serial.Workers, serial.Batch = 1, 0
	reports := make([]*ShardReport, 0, len(spec.Seeds))
	for _, seed := range spec.Seeds {
		cfg, err := serial.ShardConfig(seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := harness.Run(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		reports = append(reports, newShardReport(seed, res))
	}
	doc, err := EncodeResult(spec, spec.Hash(), reports)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (regenerate deliberately with -update):\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// newTestServer starts a Server plus its httptest front end and tears both
// down with the test.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postSpec submits a spec and decodes the status response.
func postSpec(t *testing.T, ts *httptest.Server, spec Spec) (Status, int) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Status
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return st, resp.StatusCode
}

// fetchResult blocks on ?wait=true and returns the result body, status
// code, and the X-Sdcd-Cache header.
func fetchResult(t *testing.T, ts *httptest.Server, id string) ([]byte, int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + id + "/result?wait=true")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body, resp.StatusCode, resp.Header.Get("X-Sdcd-Cache")
}

func TestServerContractGolden(t *testing.T) {
	spec := baseSpec(20170905, 20170906)
	golden := serialResultDoc(t, spec)
	checkGolden(t, "contract_result.golden", golden)

	// One pool worker keeps the event sequence deterministic (shards run
	// in submission order); the per-shard engine is still parallel.
	_, ts := newTestServer(t, Options{PoolWorkers: 1})

	// Submit through a deliberately non-serial engine shape: the served
	// bytes must still match the serially generated golden.
	submit := spec
	submit.Workers, submit.Batch = 2, 4
	st, code := postSpec(t, ts, submit)
	if code != http.StatusAccepted {
		t.Fatalf("POST status %d, want 202", code)
	}
	if st.State.Terminal() {
		t.Fatalf("fresh campaign already terminal: %+v", st)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("got %d shards, want 2", len(st.Shards))
	}

	body, code, cacheHdr := fetchResult(t, ts, st.ID)
	if code != http.StatusOK {
		t.Fatalf("GET result status %d, want 200 (body: %s)", code, body)
	}
	if cacheHdr != "miss" {
		t.Fatalf("X-Sdcd-Cache = %q, want miss on first run", cacheHdr)
	}
	if !bytes.Equal(body, golden) {
		t.Errorf("served result differs from the serial golden\n--- served ---\n%s\n--- golden ---\n%s", body, golden)
	}

	// Status after completion.
	resp, err := http.Get(ts.URL + "/v1/campaigns/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	var final Status
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if final.State != StateDone || final.ShardsDone != 2 {
		t.Fatalf("final status %+v, want done with 2 shards", final)
	}
	for _, sh := range final.Shards {
		if sh.State != StateDone {
			t.Fatalf("shard %d not done: %+v", sh.Seed, final)
		}
	}

	// Events snapshot: well-formed JSONL with the full lifecycle.
	resp, err = http.Get(ts.URL + "/v1/campaigns/" + st.ID + "/events?follow=false")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != "application/x-ndjson" {
		t.Fatalf("events Content-Type %q", got)
	}
	var types []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("malformed event line %q: %v", sc.Text(), err)
		}
		types = append(types, ev.Type)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want := []string{"submitted", "shard_start", "shard_done", "shard_start", "shard_done", "done"}
	if strings.Join(types, " ") != strings.Join(want, " ") {
		t.Fatalf("event sequence %v, want %v", types, want)
	}
}

// TestServerResultMatchesEngineShapes re-proves the engine-shape invariance
// end to end without goldens: four shapes of the same spec all serve the
// same bytes (the first from the pool, the rest from the cache — so this
// also pins that the cache returns exactly what the runner produced).
func TestServerResultMatchesEngineShapes(t *testing.T) {
	_, ts := newTestServer(t, Options{PoolWorkers: 4})
	spec := baseSpec(7, 8)

	var first []byte
	shapes := []struct{ workers, batch int }{{1, 0}, {4, 0}, {1, 4}, {4, 4}}
	for i, shape := range shapes {
		sub := spec
		sub.Workers, sub.Batch = shape.workers, shape.batch
		st, code := postSpec(t, ts, sub)
		if code != http.StatusOK && code != http.StatusAccepted {
			t.Fatalf("shape %v: POST status %d", shape, code)
		}
		body, code, _ := fetchResult(t, ts, st.ID)
		if code != http.StatusOK {
			t.Fatalf("shape %v: result status %d (%s)", shape, code, body)
		}
		if i == 0 {
			first = body
			continue
		}
		if !bytes.Equal(body, first) {
			t.Errorf("shape %v served different bytes than shape %v", shape, shapes[0])
		}
	}
}

func TestServerMetaAndValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{PoolWorkers: 1})

	resp, err := http.Get(ts.URL + "/v1/meta")
	if err != nil {
		t.Fatal(err)
	}
	var meta Meta
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(meta.Problems) == 0 || len(meta.Methods) == 0 || len(meta.Injectors) == 0 || len(meta.Detectors) == 0 {
		t.Fatalf("meta has empty registries: %+v", meta)
	}

	// A bad spec is rejected with a self-describing 400.
	bad := baseSpec(1)
	bad.Detector = "psychic"
	_, code := postSpec(t, ts, bad)
	if code != http.StatusBadRequest {
		t.Fatalf("bad detector: POST status %d, want 400", code)
	}

	// Execution hints past their limits are rejected before the harness
	// sizes anything from them, and the server keeps serving afterwards.
	huge := baseSpec(1)
	huge.Workers = 1 << 40
	if _, code := postSpec(t, ts, huge); code != http.StatusBadRequest {
		t.Fatalf("huge workers: POST status %d, want 400", code)
	}
	huge = baseSpec(1)
	huge.Batch = 1 << 40
	if _, code := postSpec(t, ts, huge); code != http.StatusBadRequest {
		t.Fatalf("huge batch: POST status %d, want 400", code)
	}
	st, code := postSpec(t, ts, baseSpec(1))
	if code != http.StatusOK && code != http.StatusAccepted {
		t.Fatalf("valid spec after rejections: POST status %d", code)
	}
	if body, code, _ := fetchResult(t, ts, st.ID); code != http.StatusOK {
		t.Fatalf("valid spec after rejections: result status %d (%s)", code, body)
	}

	// Unknown fields are rejected, so typos don't silently select defaults.
	resp, err = http.Post(ts.URL+"/v1/campaigns", "application/json",
		strings.NewReader(`{"problem":"oscillator","seeds":[1],"detectr":"classic"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: POST status %d, want 400", resp.StatusCode)
	}

	// Unknown campaign IDs 404.
	resp, err = http.Get(ts.URL + "/v1/campaigns/c99999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing campaign: GET status %d, want 404", resp.StatusCode)
	}
}
