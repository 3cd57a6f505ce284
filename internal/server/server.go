package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/server/store"
	"repro/internal/telemetry"
)

// Options sizes a Server. Zero values select the defaults noted per field.
type Options struct {
	// PoolWorkers is the number of shard workers: how many harness
	// campaigns run concurrently across all submissions (default
	// GOMAXPROCS). Each shard additionally honours its spec's per-shard
	// Workers hint, so keep PoolWorkers low when specs ask for parallel
	// engines.
	PoolWorkers int
	// QueueCap bounds the pending-shard queue. A submission whose shards
	// do not all fit is rejected with ErrQueueFull rather than accepted
	// and left to starve (default 4096).
	QueueCap int
	// MaxCampaigns bounds the retained campaign records; the oldest
	// terminal campaign is evicted past the bound (default 8192).
	MaxCampaigns int
	// CacheCap bounds each layer of the content-addressed result cache
	// (default 4096 entries).
	CacheCap int
	// DataDir, when non-empty, turns on the durability layer: an
	// append-only journal of submissions and terminal transitions plus an
	// on-disk content-addressed result store under this directory. On
	// startup the server replays the journal, warms the result cache from
	// disk, re-registers every non-terminal campaign under its original
	// ID, and re-enqueues exactly the shards lacking a stored report.
	// Empty keeps the server fully in-memory (the pre-durability
	// behaviour).
	DataDir string
	// SyncEvery is the journal fsync policy: sync after every Nth
	// appended record (default 1 — every submission and terminal
	// transition is durable before it is acknowledged). Result documents
	// and shard reports are always synced before their atomic rename,
	// independent of this setting. Ignored without DataDir.
	SyncEvery int
}

func (o *Options) defaults() {
	if o.PoolWorkers <= 0 {
		o.PoolWorkers = runtime.GOMAXPROCS(0)
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 4096
	}
	if o.MaxCampaigns <= 0 {
		o.MaxCampaigns = 8192
	}
	if o.CacheCap <= 0 {
		o.CacheCap = 4096
	}
	if o.SyncEvery <= 0 {
		o.SyncEvery = 1
	}
}

// Submission errors the HTTP layer maps onto status codes.
var (
	// ErrQueueFull rejects a submission whose shards would overflow the
	// bounded queue (503 + Retry-After).
	ErrQueueFull = errors.New("server: shard queue full")
	// ErrClosed rejects submissions after Close has begun.
	ErrClosed = errors.New("server: shut down")
	// ErrStore rejects a submission the durability journal could not
	// record (500): accepting work the journal cannot resume would
	// silently void the crash-safety contract.
	ErrStore = errors.New("server: durability store failure")
)

// Server owns the campaign registry, the bounded shard queue, the worker
// pool, the result cache, and (optionally) the durability store. One
// Server outlives many submissions; Close tears the pool down and cancels
// everything in flight — without journaling those cancellations, so a
// restart on the same data directory resumes them.
type Server struct {
	opts   Options
	ctx    context.Context // root of every campaign context
	cancel context.CancelFunc
	wg     sync.WaitGroup
	jobs   chan *shard
	cache  *resultCache
	store  *store.Store // nil without Options.DataDir

	// suppressJournal gates terminal journaling during Close: shutdown
	// abandonment is not a campaign outcome, and journaling it would
	// make the campaign unresumable. Atomic because finishLocked fires
	// under c.mu, where s.mu must not be taken.
	suppressJournal atomic.Bool
	journalErrs     atomic.Uint64 // terminal-record append failures

	mu             sync.Mutex
	closed         bool
	campaigns      map[string]*campaign
	order          []string // campaign IDs in submission order (oldest first)
	nextID         uint64
	queued         int // shards reserved or sitting in jobs, not yet picked up
	maxQueued      int // high-water mark of queued, for the load tests
	shardsRun      uint64
	repsRun        uint64 // replicates executed (sum of Rates.Runs over run shards)
	resumed        int    // campaigns re-registered from the journal at startup
	warmedCampaign int    // cache entries preloaded from disk at startup
	warmedShard    int
}

// New builds a Server, opens and replays its durability store when
// Options.DataDir is set, and starts the worker pool. With a data
// directory the startup sequence is: open the store (tolerating a torn
// journal tail), warm the result cache from disk, re-register every
// journaled campaign without a terminal record, and re-enqueue exactly
// its shards lacking a stored report — everything else is served from
// the store, byte-identical and without running a single replicate.
func New(opts Options) (*Server, error) {
	opts.defaults()
	//lint:allow ctxflow -- the server owns its root lifecycle: Shutdown cancels this context, and every campaign derives from it
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:      opts,
		ctx:       ctx,
		cancel:    cancel,
		campaigns: make(map[string]*campaign),
	}
	if opts.DataDir != "" {
		st, err := store.Open(opts.DataDir, store.Options{SyncEvery: opts.SyncEvery})
		if err != nil {
			cancel()
			return nil, fmt.Errorf("%w: %v", ErrStore, err)
		}
		s.store = st
	}
	s.cache = newResultCache(opts.CacheCap, s.store)
	s.warmedCampaign, s.warmedShard = s.cache.warm()

	// Resume before the pool starts: restore runs single-threaded, so the
	// re-enqueued backlog lands in submission order and the queue
	// accounting below needs no locking.
	var pending []*shard
	if s.store != nil {
		pending = s.restore()
	}
	queueCap := opts.QueueCap
	if len(pending) > queueCap {
		// The resumed backlog may exceed the configured cap (it was
		// admitted by a previous process under the same cap, possibly
		// accumulated across campaigns). Size the channel to hold it —
		// new submissions are still admitted against QueueCap, so the
		// steady-state bound returns as the backlog drains.
		queueCap = len(pending)
	}
	s.jobs = make(chan *shard, queueCap)
	for _, sh := range pending {
		s.jobs <- sh
	}
	s.queued = len(pending)
	if s.queued > s.maxQueued {
		s.maxQueued = s.queued
	}

	for i := 0; i < opts.PoolWorkers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Close stops accepting submissions, cancels every in-flight campaign,
// waits for the worker pool to drain, and releases the durability store.
// Idempotent. The campaigns it abandons are deliberately NOT journaled as
// terminal: from the durability layer's point of view a graceful shutdown
// and a crash are the same event, and both resume on the next start.
func (s *Server) Close() {
	s.mu.Lock()
	already := s.closed
	s.closed = true
	s.mu.Unlock()
	if already {
		return
	}
	// Suppress before cancelling: the cancellation below funnels in-flight
	// shards through finishShard → finishLocked, which must not record
	// shutdown abandonment as a terminal outcome.
	s.suppressJournal.Store(true)
	s.cancel()
	s.wg.Wait()
	// Shards abandoned in the queue still hold their submission-time
	// reservation; drain them and release it so the queue accounting
	// (Stats.QueueDepth) ends at zero rather than sticking forever.
	s.mu.Lock()
drain:
	for {
		select {
		case <-s.jobs:
			s.queued--
		default:
			break drain
		}
	}
	// Everything still transient was abandoned by the pool: mark it
	// cancelled so waiters unblock with a terminal state.
	open := make([]*campaign, 0, len(s.order))
	for _, id := range s.order {
		open = append(open, s.campaigns[id])
	}
	s.mu.Unlock()
	for _, c := range open {
		c.mu.Lock()
		c.finishLocked(StateCancelled, "server shut down")
		c.mu.Unlock()
	}
	if s.store != nil {
		if err := s.store.Close(); err != nil {
			s.journalErrs.Add(1)
		}
	}
}

// journalTerminal records a campaign's terminal transition, unless
// shutdown suppression is active. It runs under c.mu (from finishLocked),
// so it must never take s.mu; failures land on an atomic counter exposed
// in Stats.
func (s *Server) journalTerminal(id string, state State, errMsg string) {
	if s.store == nil || s.suppressJournal.Load() {
		return
	}
	if err := s.store.AppendTerminal(id, string(state), errMsg); err != nil {
		s.journalErrs.Add(1)
	}
}

// attachJournal wires a campaign's terminal transitions into the journal.
// Must happen before the campaign can reach a terminal state.
func (s *Server) attachJournal(c *campaign) {
	if s.store == nil {
		return
	}
	id := c.id
	c.onTerminal = func(state State, errMsg string) {
		s.journalTerminal(id, state, errMsg)
	}
}

// journalSubmit records an accepted campaign: ID, content hash, and the
// canonical spec document (hints included — they shape how resumed shards
// execute, never what they produce).
func (s *Server) journalSubmit(c *campaign) error {
	if s.store == nil {
		return nil
	}
	specJSON, err := encodeSpec(c.spec)
	if err == nil {
		err = s.store.AppendSubmit(c.id, c.hash, specJSON)
	}
	if err != nil {
		return fmt.Errorf("%w: %v", ErrStore, err)
	}
	return nil
}

// Submit canonicalizes and validates the spec, consults the campaign-level
// result cache, and — on a miss — journals and registers the campaign and
// enqueues one shard per seed. The returned campaign is already terminal
// (StateDone) on a cache hit. Rejects with ErrQueueFull when the shards
// would overflow the bounded queue, ErrClosed after shutdown has begun,
// and ErrStore when the durability journal cannot record the submission.
func (s *Server) Submit(spec Spec) (*campaign, error) {
	spec.Canonicalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	hash := spec.Hash()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.nextID++
	c := &campaign{
		id:     fmt.Sprintf("c%08d", s.nextID),
		spec:   spec,
		hash:   hash,
		notify: make(chan struct{}),
		state:  StateQueued,
	}
	c.ctx, c.cancel = context.WithCancel(s.ctx)
	//lint:allow walltime -- operational submission timestamp for the status API; never feeds a result byte
	c.submitted = time.Now()
	s.attachJournal(c)

	// Traced submissions always execute: the caller asked for the event
	// stream, which a cached document cannot replay.
	if !spec.Trace {
		if doc, ok := s.cache.lookupCampaign(hash); ok {
			if err := s.journalSubmit(c); err != nil {
				s.mu.Unlock()
				return nil, err
			}
			c.cacheHit = true
			c.result = doc
			c.mu.Lock()
			c.appendEventLocked(event{kind: eventSubmitted})
			c.finishLocked(StateDone, "")
			c.mu.Unlock()
			s.registerLocked(c)
			s.mu.Unlock()
			return c, nil
		}
	}

	if pending := s.queued; pending+len(spec.Seeds) > s.opts.QueueCap {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %d shards pending, %d submitted, cap %d",
			ErrQueueFull, pending, len(spec.Seeds), s.opts.QueueCap)
	}
	// Journal before reserving queue capacity: a submission the journal
	// cannot record is rejected with nothing to unwind.
	if err := s.journalSubmit(c); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.queued += len(spec.Seeds)
	if s.queued > s.maxQueued {
		s.maxQueued = s.queued
	}
	for i, seed := range spec.Seeds {
		c.shards = append(c.shards, &shard{c: c, idx: i, seed: seed, state: StateQueued})
	}
	c.mu.Lock()
	c.appendEventLocked(event{kind: eventSubmitted})
	c.mu.Unlock()
	s.registerLocked(c)
	s.mu.Unlock()

	// The reservation above guarantees capacity: at most `queued` shards
	// are ever in the channel, and queued <= QueueCap <= cap(jobs).
	for _, sh := range c.shards {
		s.jobs <- sh
	}
	return c, nil
}

// registerLocked files a campaign in the registry, evicting the oldest
// terminal record past MaxCampaigns. Caller holds s.mu.
func (s *Server) registerLocked(c *campaign) {
	s.campaigns[c.id] = c
	s.order = append(s.order, c.id)
	if len(s.order) <= s.opts.MaxCampaigns {
		return
	}
	for i, id := range s.order {
		old := s.campaigns[id]
		old.mu.Lock()
		terminal := old.state.Terminal()
		old.mu.Unlock()
		if terminal {
			delete(s.campaigns, id)
			s.order = append(s.order[:i], s.order[i+1:]...)
			return
		}
	}
	// Every retained campaign is live; allow transient growth rather
	// than dropping records clients are still polling.
}

// Get returns a campaign by ID.
func (s *Server) Get(id string) (*campaign, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := s.campaigns[id]
	return c, ok
}

// List snapshots every retained campaign's status in submission order.
func (s *Server) List() []Status {
	s.mu.Lock()
	cs := make([]*campaign, 0, len(s.order))
	for _, id := range s.order {
		cs = append(cs, s.campaigns[id])
	}
	s.mu.Unlock()
	out := make([]Status, 0, len(cs))
	for _, c := range cs {
		out = append(out, c.status())
	}
	return out
}

// worker pulls shards off the queue until the server shuts down.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case sh := <-s.jobs:
			s.runShard(sh)
		}
	}
}

// runShard executes one shard: drop it if its campaign is already
// terminal, serve it from the shard cache when possible, otherwise run the
// harness campaign under the campaign's context.
func (s *Server) runShard(sh *shard) {
	s.mu.Lock()
	s.queued--
	s.mu.Unlock()

	c := sh.c
	c.mu.Lock()
	if c.state.Terminal() {
		c.mu.Unlock()
		return
	}
	c.state = StateRunning
	sh.state = StateRunning
	c.appendEventLocked(event{kind: eventShardStart, sh: sh})
	spec := c.spec
	c.mu.Unlock()

	if !spec.Trace {
		if rep, ok := s.cache.lookupShard(spec.ShardKey(sh.seed)); ok {
			s.finishShard(sh, rep, nil, true, nil)
			return
		}
	}
	cfg, err := spec.ShardConfig(sh.seed)
	if err != nil {
		s.finishShard(sh, nil, err, false, nil)
		return
	}
	s.mu.Lock()
	s.shardsRun++
	s.mu.Unlock()
	res, err := harness.RunContext(c.ctx, cfg)
	if err != nil {
		s.finishShard(sh, nil, err, false, nil)
		return
	}
	s.mu.Lock()
	s.repsRun += uint64(res.Rates.Runs)
	s.mu.Unlock()
	rep := newShardReport(sh.seed, res)
	s.cache.storeShard(spec.ShardKey(sh.seed), rep)
	s.finishShard(sh, rep, nil, false, res.Trace)
}

// finishShard lands one shard's outcome on its campaign: failure or
// cancellation finishes the whole campaign, success records the report and
// — when it was the last shard — assembles, caches, and publishes the
// merged result document. The persistence order is deliberate: the shard
// report and the merged document reach the store (via the write-through
// cache) before the terminal journal record lands, so a crash between the
// two replays as "all shards stored" and completes instantly on restart.
func (s *Server) finishShard(sh *shard, rep *ShardReport, err error, cached bool, trace *telemetry.Recorder) {
	c := sh.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.state.Terminal() {
		return // cancelled while this shard ran; its outcome is void
	}
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			sh.state = StateCancelled
			c.finishLocked(StateCancelled, "cancelled")
			return
		}
		sh.state = StateFailed
		c.finishLocked(StateFailed, fmt.Sprintf("shard %d (seed %d): %v", sh.idx, sh.seed, err))
		return
	}
	sh.state = StateDone
	sh.report = rep
	c.shardsDone++
	c.appendTraceLocked(trace)
	c.appendEventLocked(event{kind: eventShardDone, sh: sh, cached: cached})
	if c.shardsDone < len(c.shards) {
		return
	}
	reports := make([]*ShardReport, len(c.shards))
	for i, x := range c.shards {
		reports[i] = x.report
	}
	doc, encErr := EncodeResult(c.spec, c.hash, reports)
	if encErr != nil {
		c.finishLocked(StateFailed, encErr.Error())
		return
	}
	c.result = doc
	s.cache.storeCampaign(c.hash, doc)
	c.finishLocked(StateDone, "")
}

// Stats is the operational counter snapshot served by GET /v1/stats. The
// queue fields let the load tests assert the reservation bound held; the
// cache and replicate counters let the determinism tests prove a repeat
// submission ran zero new replicates; the durability fields let the
// crash-recovery tests prove a resumed campaign re-ran only the shards
// without a stored report.
type Stats struct {
	QueueDepth       int    `json:"queue_depth"`
	MaxQueueDepth    int    `json:"max_queue_depth"`
	QueueCap         int    `json:"queue_cap"`
	PoolWorkers      int    `json:"pool_workers"`
	Campaigns        int    `json:"campaigns"`
	Queued           int    `json:"campaigns_queued"`
	Running          int    `json:"campaigns_running"`
	Done             int    `json:"campaigns_done"`
	Failed           int    `json:"campaigns_failed"`
	Cancelled        int    `json:"campaigns_cancelled"`
	ShardsRun        uint64 `json:"shards_run"`
	ReplicatesRun    uint64 `json:"replicates_run"`
	CacheHits        uint64 `json:"cache_hits"`
	CacheMisses      uint64 `json:"cache_misses"`
	ShardCacheHits   uint64 `json:"shard_cache_hits"`
	ShardCacheMisses uint64 `json:"shard_cache_misses"`
	CacheEntries     int    `json:"cache_entries"`
	ShardEntries     int    `json:"shard_entries"`

	// Durability counters; all zero without Options.DataDir.
	Durable         bool   `json:"durable"`
	DiskHits        uint64 `json:"disk_hits"`
	StoreErrors     uint64 `json:"store_errors"`
	JournalRecords  uint64 `json:"journal_records"`
	Resumed         int    `json:"campaigns_resumed"`
	WarmedCampaigns int    `json:"warmed_campaigns"`
	WarmedShards    int    `json:"warmed_shards"`
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	st := Stats{
		QueueDepth:      s.queued,
		MaxQueueDepth:   s.maxQueued,
		QueueCap:        s.opts.QueueCap,
		PoolWorkers:     s.opts.PoolWorkers,
		Campaigns:       len(s.order),
		ShardsRun:       s.shardsRun,
		ReplicatesRun:   s.repsRun,
		Resumed:         s.resumed,
		WarmedCampaigns: s.warmedCampaign,
		WarmedShards:    s.warmedShard,
	}
	cs := make([]*campaign, 0, len(s.order))
	for _, id := range s.order {
		cs = append(cs, s.campaigns[id])
	}
	s.mu.Unlock()
	for _, c := range cs {
		c.mu.Lock()
		state := c.state
		c.mu.Unlock()
		switch state {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		case StateCancelled:
			st.Cancelled++
		}
	}
	cst := s.cache.stats()
	st.CacheHits, st.CacheMisses = cst.Hits, cst.Misses
	st.ShardCacheHits, st.ShardCacheMisses = cst.ShardHits, cst.ShardMisses
	st.CacheEntries, st.ShardEntries = cst.Campaigns, cst.Shards
	st.DiskHits = cst.DiskHits
	st.StoreErrors = cst.StoreErrs + s.journalErrs.Load()
	if s.store != nil {
		st.Durable = true
		st.JournalRecords = s.store.JournalRecords()
	}
	return st
}
