package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/internal/server/store"
)

// sdcdParams are the inputs of the mixed server workload.
type sdcdParams struct {
	Problem       string   `json:"problem"`
	N             int      `json:"n"`
	Method        string   `json:"method"`
	Injector      string   `json:"injector"`
	Detectors     []string `json:"detectors"` // rotated over fresh campaigns
	SeedsPerSpec  int      `json:"seeds_per_spec"`
	MinInjections int      `json:"min_injections_per_shard"`
	WarmSpecs     int      `json:"warm_specs"` // completed before timing: the resubmission pool
	FreshPct      int      `json:"fresh_pct"`
	HitPct        int      `json:"resubmit_pct"`
	OverlapPct    int      `json:"overlap_pct"`
	Clients       int      `json:"clients"` // closed-loop clients = connections
	PoolWorkers   int      `json:"pool_workers"`
}

func sdcdParamsFor(scale string) sdcdParams {
	p := sdcdParams{
		Problem: "burgers", N: 64, Method: "heun-euler", Injector: "scaled",
		SeedsPerSpec: 2, MinInjections: 100, WarmSpecs: 8,
		FreshPct: 70, HitPct: 15, OverlapPct: 15,
		Clients: runtime.GOMAXPROCS(0), PoolWorkers: runtime.GOMAXPROCS(0),
	}
	for _, d := range table3Detectors {
		p.Detectors = append(p.Detectors, string(d))
	}
	if scale == "tiny" {
		p.N, p.MinInjections, p.WarmSpecs = 32, 5, 4
	}
	return p
}

// Request kinds of the mix.
const (
	kindFresh   = "fresh"    // new seeds: every shard executes
	kindHit     = "resubmit" // exact resubmission of a warm spec: campaign-cache hit
	kindOverlap = "overlap"  // one warm seed plus one new: half the shards hit the shard cache
)

type job struct {
	kind string
	spec server.Spec
}

// specPool generates the request sequence from the seed. Request i is the
// same for a given seed whichever client takes it.
type specPool struct {
	prm   sdcdParams
	mu    sync.Mutex
	rng   *rand.Rand
	seen  map[uint64]bool
	fresh int
	warm  []server.Spec
	jobs  []job
}

func newSpecPool(prm sdcdParams, seed uint64) *specPool {
	p := &specPool{prm: prm, rng: rand.New(rand.NewPCG(seed, 0x5dcd)), seen: map[uint64]bool{}}
	for i := 0; i < prm.WarmSpecs; i++ {
		p.warm = append(p.warm, p.freshSpec())
	}
	return p
}

func (p *specPool) newSeed() uint64 {
	for {
		s := p.rng.Uint64N(1 << 40)
		if !p.seen[s] {
			p.seen[s] = true
			return s
		}
	}
}

func (p *specPool) freshSpec() server.Spec {
	s := server.Spec{
		Problem: p.prm.Problem, N: p.prm.N, Method: p.prm.Method, Injector: p.prm.Injector,
		Detector:      p.prm.Detectors[p.fresh%len(p.prm.Detectors)],
		MinInjections: p.prm.MinInjections,
	}
	p.fresh++
	for i := 0; i < p.prm.SeedsPerSpec; i++ {
		s.Seeds = append(s.Seeds, p.newSeed())
	}
	return s
}

// at returns request i of the timed phase.
func (p *specPool) at(i int) job {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.jobs) <= i {
		r := p.rng.IntN(100)
		switch {
		case r < p.prm.FreshPct:
			p.jobs = append(p.jobs, job{kindFresh, p.freshSpec()})
		case r < p.prm.FreshPct+p.prm.HitPct:
			w := p.warm[p.rng.IntN(len(p.warm))]
			w.Seeds = append([]uint64(nil), w.Seeds...)
			p.jobs = append(p.jobs, job{kindHit, w})
		default:
			w := p.warm[p.rng.IntN(len(p.warm))]
			w.Seeds = []uint64{w.Seeds[0], p.newSeed()}
			p.jobs = append(p.jobs, job{kindOverlap, w})
		}
	}
	return p.jobs[i]
}

// liveServer is an in-process sdcd listening on loopback.
type liveServer struct {
	srv  *server.Server
	hs   *http.Server
	base string
	done chan struct{} // closed when Serve has returned
}

func startServer(opts server.Options) (*liveServer, error) {
	srv, err := server.New(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	ls := &liveServer{srv: srv, hs: &http.Server{Handler: srv.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(ls.done)
		_ = ls.hs.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return ls, nil
}

// stop shuts the listener down, waits for Serve to return, and closes the
// server.
func (ls *liveServer) stop() {
	_ = ls.hs.Shutdown(context.Background())
	<-ls.done
	ls.srv.Close()
}

// client is one closed-loop caller's HTTP surface.
type client struct {
	base string
	hc   *http.Client
}

func (c *client) submit(ctx context.Context, spec server.Spec) (server.Status, int, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return server.Status{}, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/campaigns", bytes.NewReader(body))
	if err != nil {
		return server.Status{}, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return server.Status{}, 0, err
	}
	defer resp.Body.Close()
	var st server.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, resp.StatusCode, fmt.Errorf("decoding submit status: %w", err)
	}
	return st, resp.StatusCode, nil
}

func (c *client) get(ctx context.Context, path string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

func (c *client) stats(ctx context.Context) (server.Stats, error) {
	var st server.Stats
	data, code, err := c.get(ctx, "/v1/stats")
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("stats: HTTP %d", code)
	}
	if err == nil {
		err = json.Unmarshal(data, &st)
	}
	return st, err
}

// shardObs is one shard as a client observed it on the event stream.
type shardObs struct {
	detector       string
	queueWait, run float64 // seconds: submit → shard_start, shard_start → shard_done
	cached         bool
	report         server.ShardReport
}

// follow reads a campaign's event stream to its terminal record and
// returns its shards' observations, timed from submitted.
func (c *client) follow(ctx context.Context, id, detector string, submitted time.Time) ([]shardObs, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/campaigns/"+id+"/events", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events: HTTP %d", resp.StatusCode)
	}
	starts := map[int]float64{}
	var obs []shardObs
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	for sc.Scan() {
		at := seconds(submitted)
		var ev struct {
			Type   string              `json:"type"`
			Shard  int                 `json:"shard"`
			Cached bool                `json:"cached"`
			Report *server.ShardReport `json:"report"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("event: %w", err)
		}
		switch ev.Type {
		case "shard_start":
			starts[ev.Shard] = at
		case "shard_done":
			o := shardObs{detector: detector, queueWait: starts[ev.Shard], run: at - starts[ev.Shard], cached: ev.Cached}
			if ev.Report != nil {
				o.report = *ev.Report
			}
			obs = append(obs, o)
		case "failed", "cancelled":
			return obs, fmt.Errorf("campaign %s ended %s", id, ev.Type)
		}
	}
	return obs, sc.Err()
}

// sdcdRun accumulates the load phase's observations.
type sdcdRun struct {
	mu        sync.Mutex
	lat       map[string][]float64 // POST → document, seconds, by kind
	submit    []float64            // POST round trips, seconds
	shards    []shardObs
	docs      map[string][]byte      // first-served document per campaign hash
	specs     map[string]server.Spec // spec per hash, for the oracle
	kinds     map[string]string      // request kind per hash
	executed  float64                // injections applied by shards the server ran
	attempted int
	failed    int
	httpErrs  int
}

// request performs one closed-loop request: submit, then block on the
// result (untraced) or follow the event stream and fetch it (traced).
func (r *sdcdRun) request(ctx context.Context, c *client, j job, traced bool, tr *tracer, reqID string) {
	fail := func(httpErr bool) {
		r.mu.Lock()
		r.failed++
		if httpErr {
			r.httpErrs++
		}
		r.mu.Unlock()
	}
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
	root, endReq := tr.begin(0, "sdcd.request/"+j.kind, reqID)
	defer endReq()

	t0 := time.Now()
	_, endSpan := tr.begin(root, "http.POST /v1/campaigns", reqID)
	st, code, err := c.submit(ctx, j.spec)
	endSpan()
	submitted := time.Now()
	if err != nil || (code != http.StatusOK && code != http.StatusAccepted) {
		fail(code != 0)
		return
	}
	var obs []shardObs
	path := "/v1/campaigns/" + st.ID + "/result?wait=true"
	if traced {
		_, endSpan = tr.begin(root, "http.GET events", reqID)
		obs, err = c.follow(ctx, st.ID, j.spec.Detector, submitted)
		endSpan()
		if err != nil {
			fail(false)
			return
		}
		path = "/v1/campaigns/" + st.ID + "/result"
	}
	_, endSpan = tr.begin(root, "http.GET result", reqID)
	doc, code, err := c.get(ctx, path)
	endSpan()
	lat := seconds(t0)
	if err != nil || code != http.StatusOK {
		fail(code != 0)
		return
	}
	var rd server.ResultDoc
	if err := json.Unmarshal(doc, &rd); err != nil || rd.Hash != st.Hash {
		fail(false)
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if first, ok := r.docs[st.Hash]; ok {
		if !bytes.Equal(first, doc) {
			r.failed++ // a repeat must serve the first-served bytes
			return
		}
	} else {
		r.docs[st.Hash], r.specs[st.Hash], r.kinds[st.Hash] = doc, j.spec, j.kind
	}
	r.lat[j.kind] = append(r.lat[j.kind], lat)
	r.submit = append(r.submit, submitted.Sub(t0).Seconds())
	r.shards = append(r.shards, obs...)
	switch j.kind {
	case kindFresh:
		r.executed += float64(rd.Totals.Rates.Injections)
	case kindOverlap:
		r.executed += float64(rd.Shards[1].Rates.Injections)
	}
}

// drive runs clients closed-loop clients on base. Each client takes the
// next request index from next and performs jobAt(i) until jobAt reports
// that no request is left; drive returns the phase's wall time.
func (r *sdcdRun) drive(ctx context.Context, clients int, base string, hc *http.Client, next *atomic.Int64, jobAt func(int) (job, bool), traced bool, tr *tracer) float64 {
	t0 := time.Now()
	var wg sync.WaitGroup
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &client{base: base, hc: hc}
			for {
				i := int(next.Add(1) - 1)
				j, ok := jobAt(i)
				if !ok {
					return
				}
				r.request(ctx, c, j, traced, tr, fmt.Sprintf("r%d", i))
			}
		}()
	}
	wg.Wait()
	return seconds(t0)
}

// load drives the pool's requests for dur.
func (r *sdcdRun) load(ctx context.Context, prm sdcdParams, pool *specPool, next *atomic.Int64, base string, hc *http.Client, dur time.Duration, traced bool, tr *tracer) float64 {
	t0 := time.Now()
	return r.drive(ctx, prm.Clients, base, hc, next, func(i int) (job, bool) {
		return pool.at(i), time.Since(t0) < dur
	}, traced, tr)
}

// runSdcd runs the mixed server workload: closed-loop clients against an
// in-process sdcd with a live journal and blob store.
func runSdcd(ctx context.Context, o options, tr *tracer) (*outcome, error) {
	prm := sdcdParamsFor(o.scale)
	out := &outcome{values: map[string]float64{}, params: prm}
	dataRoot, err := os.MkdirTemp(o.workdir, "sdcd-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dataRoot)

	setupS, err := timeServerSetup(dataRoot, prm)
	if err != nil {
		return nil, err
	}
	dataDir, err := os.MkdirTemp(dataRoot, "data-")
	if err != nil {
		return nil, err
	}
	live, err := startServer(server.Options{DataDir: dataDir, PoolWorkers: prm.PoolWorkers})
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			live.stop()
		}
	}()

	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: prm.Clients, MaxIdleConnsPerHost: prm.Clients}}
	defer hc.CloseIdleConnections()
	pool := newSpecPool(prm, o.seed)
	run := &sdcdRun{lat: map[string][]float64{}, docs: map[string][]byte{}, specs: map[string]server.Spec{}, kinds: map[string]string{}}

	// Warm-up, untimed: the resubmission pool completes before the clock
	// starts, so every resubmission is a campaign-cache hit and every
	// overlap's first shard a shard-cache hit.
	var warmNext atomic.Int64
	run.drive(ctx, prm.Clients, live.base, hc, &warmNext, func(i int) (job, bool) {
		if i >= len(pool.warm) {
			return job{}, false
		}
		return job{kindFresh, pool.warm[i]}, true
	}, false, nil)
	run.lat = map[string][]float64{}
	run.submit, run.executed = nil, 0

	c := &client{base: live.base, hc: hc}
	before, err := c.stats(ctx)
	if err != nil {
		return nil, err
	}
	var next atomic.Int64
	dur := time.Duration(o.seconds * float64(time.Second))
	var wall, tracedWall, plainP50 float64
	var cpu0, cpu1 float64
	var mem0, mem1 runtime.MemStats
	if !o.trace {
		wall = run.load(ctx, prm, pool, &next, live.base, hc, dur, false, nil)
	} else {
		// Half the time untraced, half traced: the difference in fresh
		// campaign latency is the tracing overhead.
		run.load(ctx, prm, pool, &next, live.base, hc, dur/2, false, nil)
		plainP50 = median(run.lat[kindFresh])
		run.lat = map[string][]float64{}
		run.submit, run.executed = nil, 0
		cpu0 = cpuSeconds()
		runtime.ReadMemStats(&mem0)
		tracedWall = run.load(ctx, prm, pool, &next, live.base, hc, dur/2, true, tr)
		runtime.ReadMemStats(&mem1)
		cpu1 = cpuSeconds()
		wall = tracedWall
	}
	peakRSS := peakRSSMB()
	after, err := c.stats(ctx)
	if err != nil {
		return nil, err
	}

	// Correctness: a sample of executed documents must byte-match a second
	// server running every shard on the serial engine, without a data dir.
	if err := run.checkOracle(ctx, prm); err != nil {
		return nil, err
	}
	out.attempted, out.failed = run.attempted, run.failed

	// Restart: reopen the run's data directory (journal replay + cache warm).
	live.stop()
	stopped = true
	var restarts []float64
	for i := 0; i < 9; i++ {
		runtime.GC()
		t0 := time.Now()
		s, err := server.New(server.Options{DataDir: dataDir, PoolWorkers: prm.PoolWorkers})
		if err != nil {
			return nil, err
		}
		restarts = append(restarts, seconds(t0))
		s.Close()
	}

	shardsDone := float64(after.ShardsRun-before.ShardsRun) + float64(after.ShardCacheHits-before.ShardCacheHits)
	if !o.trace {
		v := out.values
		v["injections_per_s"] = run.executed / wall
		v["setup_s"] = setupS
		v["peak_rss_mb"] = peakRSS
		v["result_latency_p50_ms"] = 1e3 * median(run.lat[kindFresh])
		v["result_latency_p90_ms"] = 1e3 * quantile(run.lat[kindFresh], 0.9)
		v["shards_per_s"] = shardsDone / wall
		fmt.Printf("ungated (see README): cache_hit_latency_p50_ms %.4f ms over %d resubmissions, restart_ms %.3f ms\n",
			1e3*median(run.lat[kindHit]), len(run.lat[kindHit]), 1e3*median(restarts))
		fmt.Printf("sdcd-mixed: %d fresh, %d resubmitted, %d overlapping campaigns in %.2f s\n",
			len(run.lat[kindFresh]), len(run.lat[kindHit]), len(run.lat[kindOverlap]), wall)
		return out, nil
	}

	// Per-layer: counts from the executed shards seen on the event streams
	// and from /v1/stats, unit costs from the layer replay on the workload's
	// own problem.
	cnt := &counts{perDet: map[string]*detCounts{}, cpuS: cpu1 - cpu0, wall: tracedWall, workers: runtime.GOMAXPROCS(0)}
	var queueWait, shardRun []float64
	orders := map[string][]float64{}
	for _, sh := range run.shards {
		queueWait = append(queueWait, sh.queueWait)
		if sh.cached {
			continue
		}
		shardRun = append(shardRun, sh.run)
		rp := sh.report
		d := cnt.perDet[sh.detector]
		if d == nil {
			d = &detCounts{}
			cnt.perDet[sh.detector] = d
		}
		d.trialSteps += float64(rp.TrialSteps)
		orders[sh.detector] = append(orders[sh.detector], rp.MeanOrder)
		cnt.replicates += float64(rp.Rates.Runs)
		cnt.steps += float64(rp.Steps)
		cnt.trialSteps += float64(rp.TrialSteps)
		cnt.rhsEvals += float64(rp.Evals)
		cnt.corruptTrials += float64(rp.Rates.CorruptTrials)
		cnt.sigTrials += float64(rp.Rates.SigTrials)
		cnt.injections += float64(rp.Rates.Injections)
	}
	for d, qs := range orders {
		cnt.perDet[d].meanOrder = mean(qs)
	}
	cnt.allocBytes = float64(mem1.TotalAlloc - mem0.TotalAlloc)
	cnt.gcCycles = float64(mem1.NumGC - mem0.NumGC)

	spec := pool.warm[0]
	cfg, err := (&spec).ShardConfig(spec.Seeds[0])
	if err != nil {
		return nil, err
	}
	uc, err := replayUnitCosts(cfg.Problem, cfg.Tab, cnt.lipQ(), cnt.bdfQ(), o.scale, tr)
	if err != nil {
		return nil, err
	}
	v := out.values
	layerMetrics(v, cnt, uc)
	// The server's shard reports carry no classic/validator rejection split
	// and no per-detector CPU time, and no workload pass runs lockstep.
	v["ode.rejected_classic"], v["ode.rejected_validator"], v["ode.fp_rescues"] = 0, 0, 0
	v["batch.campaign_speedup"] = 0
	v["bench.trace_overhead_pct"] = 100 * (median(run.lat[kindFresh])/plainP50 - 1)

	v["server.submit_ms_p50"] = 1e3 * median(run.submit)
	v["server.restart_ms"] = 1e3 * median(restarts)
	v["server.cache_hit_latency_p50_ms"] = 1e3 * median(run.lat[kindHit])
	v["server.queue_wait_ms_p50"] = 1e3 * median(queueWait)
	v["server.queue_wait_ms_p90"] = 1e3 * quantile(queueWait, 0.9)
	v["server.shard_run_ms_p50"] = 1e3 * median(shardRun)
	hits := float64(after.CacheHits-before.CacheHits) + float64(after.ShardCacheHits-before.ShardCacheHits)
	lookups := hits + float64(after.CacheMisses-before.CacheMisses) + float64(after.ShardCacheMisses-before.ShardCacheMisses)
	v["server.cache_hit_ratio"] = ratio(hits, lookups)
	v["server.shards_run"] = float64(after.ShardsRun - before.ShardsRun)
	v["server.max_queue_depth"] = float64(after.MaxQueueDepth)
	v["server.http_errors"] = float64(run.httpErrs)
	v["store.journal_records"] = float64(after.JournalRecords)
	v["store.errors"] = float64(after.StoreErrors)
	appendUs, putUs, err := storeReplay(dataRoot, run, tr)
	if err != nil {
		return nil, err
	}
	v["store.append_us_p50"], v["store.put_blob_us_p50"] = appendUs, putUs
	printSplit(o.workload, cnt, v)
	fmt.Printf("sdcd-mixed traced half: %d fresh campaigns, %d shard observations, queue wait p50 %.2f ms\n",
		len(run.lat[kindFresh]), len(run.shards), 1e3*median(queueWait))
	return out, nil
}

// timeServerSetup returns the median of 25 set-ups: server.New on a fresh
// data directory plus listener start. It first flushes the file system, so
// the directory and journal creation it times do not queue behind
// write-back of earlier runs' files.
func timeServerSetup(dataRoot string, prm sdcdParams) (float64, error) {
	syscall.Sync()
	var setups []float64
	for i := 0; i < 25; i++ {
		dir, err := os.MkdirTemp(dataRoot, "setup-")
		if err != nil {
			return 0, err
		}
		runtime.GC()
		t0 := time.Now()
		ls, err := startServer(server.Options{DataDir: dir, PoolWorkers: prm.PoolWorkers})
		if err != nil {
			return 0, err
		}
		setups = append(setups, seconds(t0))
		ls.stop()
	}
	return median(setups), nil
}

// serverMetricNames are the per-layer metrics of the server and its store.
var serverMetricNames = []string{
	"server.submit_ms_p50", "server.restart_ms", "server.cache_hit_latency_p50_ms", "server.queue_wait_ms_p50", "server.queue_wait_ms_p90", "server.shard_run_ms_p50",
	"server.cache_hit_ratio", "server.shards_run", "server.max_queue_depth", "server.http_errors",
	"store.append_us_p50", "store.put_blob_us_p50", "store.journal_records", "store.errors",
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// checkOracle re-runs a sample of the executed campaigns on a second
// in-process server (one pool worker, serial shards, no data directory)
// and counts every document that differs from the one served.
func (r *sdcdRun) checkOracle(ctx context.Context, prm sdcdParams) error {
	var hashes []string
	for h, k := range r.kinds {
		if k != kindHit {
			hashes = append(hashes, h)
		}
	}
	sort.Strings(hashes)
	const sample = 6
	step := max(1, len(hashes)/sample)
	ls, err := startServer(server.Options{PoolWorkers: 1})
	if err != nil {
		return err
	}
	defer ls.stop()
	c := &client{base: ls.base, hc: &http.Client{}}
	defer c.hc.CloseIdleConnections()
	for i := 0; i < len(hashes); i += step {
		spec := r.specs[hashes[i]]
		spec.Workers = 1
		st, code, err := c.submit(ctx, spec)
		if err != nil || (code != http.StatusOK && code != http.StatusAccepted) {
			return fmt.Errorf("oracle submit: HTTP %d: %v", code, err)
		}
		doc, code, err := c.get(ctx, "/v1/campaigns/"+st.ID+"/result?wait=true")
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("oracle result: HTTP %d: %v", code, err)
		}
		if !bytes.Equal(doc, r.docs[hashes[i]]) {
			r.failed++
		}
	}
	return nil
}

// storeReplay times the durability layer's public calls on a scratch
// store: journal appends of a served spec and blob puts of a served shard
// report. It returns the p50 of each, in microseconds.
func storeReplay(root string, r *sdcdRun, tr *tracer) (appendUs, putUs float64, err error) {
	dir, err := os.MkdirTemp(root, "store-replay-")
	if err != nil {
		return 0, 0, err
	}
	st, err := store.Open(dir, store.Options{SyncEvery: 1})
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	var hash string
	for h := range r.docs {
		if hash == "" || h < hash {
			hash = h
		}
	}
	if hash == "" {
		return 0, 0, errors.New("store replay: no served document")
	}
	specJSON, err := json.Marshal(r.specs[hash])
	if err != nil {
		return 0, 0, err
	}
	var rd server.ResultDoc
	if err := json.Unmarshal(r.docs[hash], &rd); err != nil {
		return 0, 0, err
	}
	rep, err := json.Marshal(rd.Shards[0])
	if err != nil {
		return 0, 0, err
	}
	const reps = 100
	var appends, puts []float64
	_, end := tr.begin(0, "replay.store.AppendSubmit", "")
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := st.AppendSubmit(fmt.Sprintf("c%08d", i), hash, specJSON); err != nil {
			return 0, 0, err
		}
		appends = append(appends, seconds(t0))
	}
	end()
	_, end = tr.begin(0, "replay.store.PutShard", "")
	for i := 0; i < reps; i++ {
		sum := sha256.Sum256([]byte(fmt.Sprint(i)))
		t0 := time.Now()
		if err := st.PutShard(hex.EncodeToString(sum[:]), rep); err != nil {
			return 0, 0, err
		}
		puts = append(puts, seconds(t0))
	}
	end()
	return 1e6 * median(appends), 1e6 * median(puts), nil
}
