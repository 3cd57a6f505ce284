package server

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestSubmitCacheHitEventOrder pins the cache-hit fast path that sdcvet's
// locksafe analyzer flagged: Submit must append the submitted event and
// the terminal done event under c.mu (the *Locked contract), leaving a
// cache-hit campaign born terminal with both events already in order.
func TestSubmitCacheHitEventOrder(t *testing.T) {
	s, _ := newTestServer(t, Options{PoolWorkers: 2})
	spec := baseSpec(11, 12)

	c1, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c1.wait(ctx); err != nil {
		t.Fatal(err)
	}

	c2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !c2.cacheHit {
		t.Fatal("second submission of an identical spec missed the cache")
	}

	c2.mu.Lock()
	state := c2.state
	events := make([][]byte, len(c2.events))
	for i, ev := range c2.events {
		events[i] = c2.encodeEvent(ev)
	}
	c2.mu.Unlock()

	if state != StateDone {
		t.Fatalf("cache-hit campaign state = %q, want %q", state, StateDone)
	}
	if len(events) != 2 {
		t.Fatalf("cache-hit campaign has %d events, want 2 (submitted, done)", len(events))
	}
	var first struct {
		Type string `json:"type"`
	}
	if err := json.Unmarshal(events[0], &first); err != nil {
		t.Fatal(err)
	}
	if first.Type != "submitted" {
		t.Errorf("first event type = %q, want submitted", first.Type)
	}
	var last struct {
		Type     string `json:"type"`
		CacheHit bool   `json:"cache_hit"`
	}
	if err := json.Unmarshal(events[1], &last); err != nil {
		t.Fatal(err)
	}
	if last.Type != string(StateDone) || !last.CacheHit {
		t.Errorf("terminal event = %s, want type %q with cache_hit true", events[1], StateDone)
	}
}

// TestSubmitCacheHitConcurrent hammers the cache-hit path from many
// goroutines while each waits on its own campaign, so `go test -race`
// guards the c.mu critical sections Submit now takes before publishing
// the campaign through the registry.
func TestSubmitCacheHitConcurrent(t *testing.T) {
	s, _ := newTestServer(t, Options{PoolWorkers: 2})
	spec := baseSpec(21)

	prime, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := prime.wait(ctx); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := s.Submit(spec)
			if err != nil {
				t.Error(err)
				return
			}
			if err := c.wait(ctx); err != nil {
				t.Error(err)
				return
			}
			if st := c.status(); !st.CacheHit || st.State != StateDone {
				t.Errorf("concurrent cache-hit status = %+v, want done hit", st)
			}
		}()
	}
	wg.Wait()
}
