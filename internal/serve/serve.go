// Package serve exposes the study apparatus as a long-running HTTP
// service: tables and figures rendered on demand from cached pipeline
// runs, parameterized runs keyed by (config, seed), survey-response
// validation, and on-demand statistics — with a content-addressed
// artifact cache, per-class admission control, and built-in Prometheus
// observability underneath.
//
// The layer leans on the repo's determinism contract: a
// core.Config.Fingerprint identifies exactly one artifact set, and an
// experiment's render key (core.RenderKeys) exactly one body, so cache
// keys are safe under concurrency, concurrent identical runs collapse
// onto one execution, runs that differ only in what an experiment does
// not read share its rendered body, and ETags are content hashes that
// hold across processes and restarts.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/stagecache"
)

// Options configures a Server. The zero value is usable: every field
// has a production default.
type Options struct {
	// BaseConfig is the study configuration behind the GET table/figure
	// endpoints (and the default for POST /v1/run fields the caller
	// omits). Zero means core.DefaultConfig.
	BaseConfig core.Config
	// CacheBytes bounds the rendered-artifact cache (default 64 MiB).
	CacheBytes int64
	// MaxCohort caps the per-cohort and panel size a POST /v1/run may
	// request (default 20000): admission control for work, not just
	// connections. The trace-year count is capped at maxTraceYears.
	MaxCohort int
	// Run admission: the concurrent-run limit and bounded queue depth
	// (defaults 2 and 8). Renders are admitted renderLimit at a time
	// with renderQueue waiting.
	RunLimit, RunQueue int
	// QueueTimeout bounds how long an admitted-to-queue request waits
	// for a slot (default 10s).
	QueueTimeout time.Duration
	// RunTimeout caps the wall-clock of one pipeline execution triggered
	// by a request (0 = no cap beyond the client's own disconnect). The
	// flight is shared: the timeout applies to the run, and a request
	// joining a nearly-expired run still gets whatever its own deadline
	// allows.
	RunTimeout time.Duration
	// CacheDir enables crash-safe cache persistence: completed rendered
	// artifacts are written here through the stage cache's disk tier,
	// checksum-validated at boot, and read through on memory misses.
	// Empty disables persistence.
	CacheDir string
	// StageCache enables the Merkle stage cache (internal/stagecache):
	// pipeline stage outputs are stored content-addressed, so a run that
	// differs from a previous one in a late-DAG parameter recomputes
	// only the stages the change actually reaches and restores the rest
	// byte-identically. StageCacheDir adds crash-safe disk persistence
	// for stage entries (setting it implies StageCache); empty keeps the
	// cache memory-only.
	StageCache    bool
	StageCacheDir string
	// StageCacheBytes bounds the stage cache's in-memory tier by payload
	// bytes, its one bound (default 27 MiB: 256 stage entries of a study
	// run's mean size, what an entry-count bound of 256 kept resident).
	// A run restored from the cache holds its payloads rather than
	// decoded copies, so the bound also caps what the retained runs'
	// held stages keep resident.
	StageCacheBytes int64
	// BreakerThreshold is how many consecutive failed runs of one
	// fingerprint trip its circuit breaker (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long a tripped breaker fast-fails before
	// admitting a trial run (default 30s).
	BreakerCooldown time.Duration
	// StageRetries is how many times a failed pipeline stage is
	// re-attempted (default 0 = fail fast). Retries re-derive their rng
	// streams, so artifacts stay byte-identical.
	StageRetries int
	// Chaos injects deterministic faults into pipeline stages (dev/test
	// only; see internal/fault). The zero Spec disables injection.
	Chaos fault.Spec
	// RunFunc overrides pipeline execution (tests). nil means
	// core.RunWithOptions feeding the stage-timing histogram and
	// resilience counters.
	RunFunc func(ctx context.Context, cfg core.Config) (*core.Artifacts, error)

	// Cluster enables multi-replica serving (see internal/cluster): peer
	// cache fills, cluster-wide singleflight through the takeover order,
	// and work-stealing stage dispatch. Nil serves standalone — zero cluster
	// code on any request path and no cluster metric families.
	Cluster *cluster.Options
	// ReadyzQuorumStrict makes /readyz return 503 when a majority of the
	// cluster (counting self) is unreachable. Default false: readyz
	// degrades to 200 with a JSON detail body — each replica can still
	// serve everything by itself, so losing peers is degraded capacity,
	// not unreadiness. Set it when a load balancer should drop
	// minority-partition replicas instead.
	ReadyzQuorumStrict bool
}

const (
	// runCacheEntries bounds how many completed runs (Artifacts) are
	// retained for re-rendering; Artifacts are large.
	runCacheEntries = 4
	// maxTraceYears caps the trace-year count a POST /v1/run may
	// request.
	maxTraceYears = 16
	// renderLimit concurrent render requests run, and renderQueue more
	// wait for a slot.
	renderLimit, renderQueue = 32, 64
	// retryAfter is the Retry-After hint, in seconds, sent with 429/503.
	retryAfter = "1"
	// peerStageLimit caps concurrent stolen-stage executions on behalf
	// of peers. At the limit, /v1/peer/stage answers 503 immediately:
	// the thief computes locally rather than queueing.
	peerStageLimit = 4
)

func (o Options) withDefaults() Options {
	if o.BaseConfig.N2011 == 0 && o.BaseConfig.N2024 == 0 && len(o.BaseConfig.TraceYears) == 0 {
		o.BaseConfig = core.DefaultConfig()
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = 64 << 20
	}
	if o.StageCacheBytes <= 0 {
		o.StageCacheBytes = 27 << 20
	}
	if o.MaxCohort <= 0 {
		o.MaxCohort = 20000
	}
	if o.RunLimit <= 0 {
		o.RunLimit = 2
	}
	if o.RunQueue <= 0 {
		o.RunQueue = 8
	}
	if o.QueueTimeout <= 0 {
		o.QueueTimeout = 10 * time.Second
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 30 * time.Second
	}
	return o
}

// Server is the rcpt serving layer. Create with New, expose with
// Handler or Serve, stop with Shutdown (graceful drain).
type Server struct {
	opts    Options
	baseCfg core.Config
	baseFP  string
	// baseKeys are the base config's render keys (core.RenderKeys),
	// derived once here; a retained run carries its own.
	baseKeys map[string]string

	mux *http.ServeMux
	reg *obs.Registry
	// cache holds rendered bodies (see newRenderCache), with a disk tier
	// when CacheDir is set.
	cache  *stagecache.Cache
	runner *runner
	// stageCache is the Merkle stage store when Options.StageCache (or
	// StageCacheDir) enabled it; nil otherwise — runs and served steals
	// then execute every stage.
	stageCache core.StageCache

	// cluster is non-nil when Options.Cluster enabled multi-replica
	// serving; peerStageGate bounds concurrent stolen-stage work.
	cluster       *cluster.Cluster
	peerStageGate chan struct{}
	// netChaos is the transport fault injector when Chaos has net faults
	// and cluster mode is on (nil otherwise). The chaos suite scripts
	// partitions through it.
	netChaos *fault.NetInjector

	// stale holds the last good rendered body per (artifact, format),
	// whatever run it came from, for stale-while-error degradation: when
	// a run fails, render endpoints can serve the previous good body
	// (marked via X-Rcpt-Stale) instead of a bare 5xx.
	staleMu sync.Mutex
	stale   map[[2]string]staleEntry

	renderGate *gate
	runGate    *gate
	draining   atomic.Bool

	httpSrv *http.Server

	// request metrics
	requests    *obs.CounterVec
	latency     *obs.HistogramVec
	inFlight    *obs.Gauge
	writeErrors *obs.Counter
	rejected    *obs.CounterVec
	validated   *obs.CounterVec

	// resilience metrics
	stageRetries *obs.CounterVec
	stagePanics  *obs.CounterVec
	staleServed  *obs.Counter
}

// staleEntry is one last-good rendered body plus the run whose request
// rendered or filled it — empty for a body a warm start restored, since
// a content key names bytes many runs share, not a run.
type staleEntry struct {
	entry       cacheEntry
	fingerprint string
}

// New builds a Server. It validates the base configuration but does not
// run the pipeline; the first request (or a caller invoking Warm) pays
// that cost.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if err := opts.BaseConfig.Validate(); err != nil {
		return nil, fmt.Errorf("serve: base config: %w", err)
	}
	if err := opts.Chaos.Validate(); err != nil {
		return nil, err
	}
	baseKeys, err := core.RenderKeys(opts.BaseConfig)
	if err != nil {
		return nil, fmt.Errorf("serve: base config: %w", err)
	}
	reg := obs.NewRegistry()
	s := &Server{
		opts:     opts,
		baseCfg:  opts.BaseConfig,
		baseFP:   opts.BaseConfig.Fingerprint(),
		baseKeys: baseKeys,
		mux:      http.NewServeMux(),
		reg:      reg,
		stale:    map[[2]string]staleEntry{},
		requests: reg.CounterVec("rcpt_http_requests_total",
			"HTTP requests by route and status code", "route", "code"),
		latency: reg.HistogramVec("rcpt_http_request_seconds",
			"HTTP request latency by route", obs.DefBuckets(), "route"),
		inFlight:    reg.Gauge("rcpt_http_in_flight", "requests currently being served"),
		writeErrors: reg.Counter("rcpt_http_write_errors_total", "response writes that failed mid-flight"),
		rejected: reg.CounterVec("rcpt_admission_rejected_total",
			"requests rejected by admission control", "class", "reason"),
		validated: reg.CounterVec("rcpt_responses_validated_total",
			"survey responses validated by verdict", "verdict"),
		stageRetries: reg.CounterVec("rcpt_stage_retries_total",
			"pipeline stage attempts retried after a failure", "stage"),
		stagePanics: reg.CounterVec("rcpt_stage_panics_recovered_total",
			"pipeline stage panics recovered into typed errors", "stage"),
		staleServed: reg.Counter("rcpt_stale_served_total",
			"responses served from the last good body after a run failure"),
	}
	queueDepth := reg.GaugeVec("rcpt_admission_queue_depth", "requests waiting for an admission slot", "class")
	s.renderGate = newGate("render", renderLimit, renderQueue, opts.QueueTimeout,
		queueDepth.With("render"), func(reason string) { s.rejected.With("render", reason).Inc() })
	s.runGate = newGate("run", opts.RunLimit, opts.RunQueue, opts.QueueTimeout,
		queueDepth.With("run"), func(reason string) { s.rejected.With("run", reason).Inc() })

	cache, err := newRenderCache(opts.CacheBytes, opts.CacheDir, renderCacheMetrics(reg, opts.CacheDir != ""))
	if err != nil {
		return nil, err
	}
	s.cache = cache

	// The stage cache registers its metric families only when enabled, so
	// a standalone daemon's /metrics exposition is unchanged.
	if opts.StageCache || opts.StageCacheDir != "" {
		sm := &stagecache.Metrics{
			Hits: reg.Counter("rcpt_stagecache_hits_total",
				"pipeline stages restored from the stage cache"),
			Misses: reg.Counter("rcpt_stagecache_misses_total",
				"stage-cache lookups that fell through to compute"),
			Stores: reg.Counter("rcpt_stagecache_stores_total",
				"freshly computed stage outputs stored in the stage cache"),
			Evictions: reg.Counter("rcpt_stagecache_evictions_total",
				"stage entries evicted from the in-memory tier"),
			DiskHits: reg.Counter("rcpt_stagecache_disk_hits_total",
				"stage-cache hits served by disk read-through"),
			Corrupt: reg.Counter("rcpt_stagecache_corrupt_total",
				"persisted stage entries rejected by checksum verification"),
			DiskErrors: reg.Counter("rcpt_stagecache_disk_errors_total",
				"stage-cache disk writes that failed (entry stays memory-only)"),
			Entries: reg.Gauge("rcpt_stagecache_entries", "stage entries resident in memory"),
			Bytes:   reg.Gauge("rcpt_stagecache_bytes", "payload bytes resident in memory"),
		}
		scache, err := stagecache.New(stagecache.Options{
			MaxBytes: opts.StageCacheBytes,
			Dir:      opts.StageCacheDir,
			Metrics:  sm,
		})
		if err != nil {
			return nil, err
		}
		s.stageCache = scache
		if opts.StageCacheDir != "" {
			// Warm start: verify every persisted stage entry so a restarted
			// daemon's first run reuses its pre-crash stage work.
			warmStart(scache, reg.CounterVec("rcpt_stagecache_warmstart_total",
				"persisted stage entries examined at boot, by outcome", "outcome"), nil)
		}
	}

	if opts.Cluster != nil {
		clOpts := *opts.Cluster
		if opts.Chaos.NetEnabled() {
			// Transport chaos rides the peer client via WrapTransport, so
			// injected weather hits exactly the traffic the cluster sends —
			// fills, steals, gossip — and nothing else.
			inj, err := fault.NewNet(opts.Chaos, cluster.NormalizePeer(clOpts.Self))
			if err != nil {
				return nil, err
			}
			s.netChaos = inj
			clOpts.WrapTransport = inj.RoundTripper
		}
		cl, err := cluster.New(clOpts, reg)
		if err != nil {
			return nil, err
		}
		s.cluster = cl
		s.peerStageGate = make(chan struct{}, peerStageLimit)
	}

	runFn := opts.RunFunc
	stageSeconds := reg.HistogramVec("rcpt_pipeline_stage_seconds",
		"pipeline stage wall-clock timings", obs.DefBuckets(), "stage")
	if runFn == nil {
		runOpts := core.RunOptions{
			Observer: func(stage string, seconds float64) {
				stageSeconds.With(stage).Observe(seconds)
			},
			Events: func(ev parallel.Event) {
				switch ev.Kind {
				case parallel.EventRetry:
					s.stageRetries.With(ev.Stage).Inc()
				case parallel.EventPanic:
					s.stagePanics.With(ev.Stage).Inc()
				}
			},
		}
		if opts.StageRetries > 0 {
			runOpts.Retry = parallel.RetryPolicy{
				MaxAttempts: opts.StageRetries + 1,
				BaseDelay:   50 * time.Millisecond,
				MaxDelay:    2 * time.Second,
			}
		}
		if opts.Chaos.Enabled() {
			injector, err := fault.New(opts.Chaos)
			if err != nil {
				return nil, err
			}
			runOpts.Middleware = injector.Middleware()
		}
		if s.cluster != nil {
			// Every pipeline run this replica executes dispatches its
			// stealable stages through the cluster's work-stealing seam.
			runOpts.Steal = s.cluster.Steal
		}
		runOpts.StageCache = s.stageCache
		runFn = func(ctx context.Context, cfg core.Config) (*core.Artifacts, error) {
			return core.RunWithOptions(ctx, cfg, runOpts)
		}
	}
	s.runner = newRunner(runFn, opts.BreakerThreshold, opts.BreakerCooldown, reg)

	warmstart := reg.CounterVec("rcpt_cache_warmstart_total",
		"spilled cache entries examined at boot, by outcome", "outcome")
	if opts.CacheDir != "" {
		// Warm start: every checksum-valid spilled body feeds the stale
		// store and stays on disk for read-through, so a restarted daemon
		// serves its pre-crash artifacts — same bytes, same ETags —
		// without re-running anything. No run produced them here, so
		// their stale answers name none.
		warmStart(s.cache, warmstart, func(k string, e stagecache.Entry) {
			if key, ok := parseStoreKey(k); ok {
				s.recordStale(key, "", entryFor(key, e))
			}
		})
	}
	s.routes()
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	if s.cluster != nil {
		// Probing may begin before peers are listening; the first failed
		// round just marks them down until they come up.
		s.cluster.Start()
	}
	return s, nil
}

// routes wires every endpoint through the instrumentation and admission
// middleware. Route labels are the patterns themselves, so metric
// cardinality is fixed no matter what IDs clients request.
func (s *Server) routes() {
	handle := func(pattern string, g *gate, h http.HandlerFunc) {
		s.mux.Handle(pattern, s.instrument(pattern, g, h))
	}
	// Probes and metrics bypass admission: they must answer even when
	// the service is saturated.
	handle("GET /healthz", nil, s.handleHealthz)
	handle("GET /readyz", nil, s.handleReadyz)
	handle("GET /metrics", nil, s.handleMetrics)
	handle("GET /{$}", nil, s.handleIndex)

	handle("GET /v1/experiments", s.renderGate, s.handleExperiments)
	handle("GET /v1/tables/{id}", s.renderGate, s.handleArtifact(core.KindTable))
	handle("GET /v1/figures/{id}", s.renderGate, s.handleArtifact(core.KindFigure))
	handle("POST /v1/responses", s.renderGate, s.handleResponses)
	handle("GET /v1/stats/chisquare", s.renderGate, s.handleChiSquare)
	handle("GET /v1/stats/ci", s.renderGate, s.handleCI)
	handle("GET /v1/stats/oddsratio", s.renderGate, s.handleOddsRatio)

	handle("POST /v1/run", s.runGate, s.handleRun)

	// Peer protocol (cluster mode only): secret-authenticated, and
	// deliberately outside the client admission gates — replica
	// coordination must not be starved by client load. Each endpoint
	// carries its own bound (see cluster.go).
	if s.cluster != nil {
		handle("GET /v1/peer/artifact/{fp}/{artifact}", nil, s.peerAuth(s.handlePeerArtifact))
		handle("POST /v1/peer/stage", nil, s.peerAuth(s.handlePeerStage))
		handle("POST /v1/peer/probe", nil, s.peerAuth(s.handlePeerProbe))
		handle("POST /v1/peer/probe-indirect", nil, s.peerAuth(s.handlePeerProbeIndirect))
	}
}

// Handler returns the root handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the metrics registry (for tests and for callers
// registering their own gauges).
func (s *Server) Registry() *obs.Registry { return s.reg }

// BaseFingerprint returns the fingerprint of the base configuration.
func (s *Server) BaseFingerprint() string { return s.baseFP }

// Warm runs the base configuration's pipeline so the first request does
// not pay it. Optional; safe to call concurrently with serving.
func (s *Server) Warm() error {
	_, err := s.runner.artifacts(context.Background(), s.baseFP, s.baseCfg)
	return err
}

// warmStart validates a cache's disk tier at boot, counts the outcome
// into vec, and hands each restored entry to visit (when non-nil).
func warmStart(c *stagecache.Cache, vec *obs.CounterVec, visit func(key string, e stagecache.Entry)) {
	restored, corrupt := c.Warm(visit)
	vec.With("restored").Add(uint64(restored))
	vec.With("corrupt").Add(uint64(corrupt))
}

// cacheGet reads a rendered artifact: memory first, then the disk tier
// (read-through — an entry evicted from memory but still on disk is
// promoted back).
func (s *Server) cacheGet(key cacheKey) (cacheEntry, bool) {
	e, ok := s.cache.Get(key.storeKey())
	if !ok {
		return cacheEntry{}, false
	}
	return entryFor(key, e), true
}

// cachePut stores a body that a request for run fp rendered or filled
// everywhere it belongs — the render cache (memory, and disk when
// persistence is on) and the stale-while-error store — and returns it
// ready to serve.
func (s *Server) cachePut(fp string, key cacheKey, body []byte) cacheEntry {
	e := entryFor(key, s.cache.Put(key.storeKey(), body))
	s.recordStale(key, fp, e)
	return e
}

// recordStale remembers e, from run fp ("" when unknown), as the last
// good body for its (artifact, format).
func (s *Server) recordStale(key cacheKey, fp string, e cacheEntry) {
	s.staleMu.Lock()
	s.stale[[2]string{key.artifact, key.format}] = staleEntry{entry: e, fingerprint: fp}
	s.staleMu.Unlock()
}

// lookupStale returns the last good body for (artifact, format), if any.
func (s *Server) lookupStale(artifact, format string) (staleEntry, bool) {
	s.staleMu.Lock()
	defer s.staleMu.Unlock()
	se, ok := s.stale[[2]string{artifact, format}]
	return se, ok
}

// runContext derives the context a pipeline execution runs under: the
// request's own (client disconnect) plus the configured per-run
// timeout. The returned cancel must be called when the wait ends.
func (s *Server) runContext(r *http.Request) (context.Context, context.CancelFunc) {
	if s.opts.RunTimeout > 0 {
		return context.WithTimeout(r.Context(), s.opts.RunTimeout)
	}
	return context.WithCancel(r.Context())
}

// Serve accepts connections on l until Shutdown. It returns nil after a
// clean Shutdown (http.ErrServerClosed is not an error for callers).
func (s *Server) Serve(l net.Listener) error {
	err := s.httpSrv.Serve(l)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains gracefully: readiness flips to 503 (so load
// balancers stop sending), new connections stop being accepted, and
// in-flight requests run to completion or ctx expiry. The error from
// the underlying http.Server.Shutdown — e.g. listeners that failed to
// close — is propagated, never dropped.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	var clusterErr error
	if s.cluster != nil {
		clusterErr = s.cluster.Close(ctx)
	}
	return errors.Join(clusterErr, s.httpSrv.Shutdown(ctx))
}

// statusWriter captures the response code and write failures.
type statusWriter struct {
	http.ResponseWriter
	code     int
	failed   bool
	anyWrite bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.anyWrite {
		w.code = code
		w.anyWrite = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if !w.anyWrite {
		w.code = http.StatusOK
		w.anyWrite = true
	}
	n, err := w.ResponseWriter.Write(b)
	if err != nil {
		w.failed = true
	}
	return n, err
}

// instrument wraps a handler with metrics and (when g != nil) admission
// control and drain refusal.
func (s *Server) instrument(route string, g *gate, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		s.inFlight.Inc()
		defer func() {
			s.inFlight.Dec()
			s.latency.With(route).Observe(time.Since(start).Seconds())
			s.requests.With(route, strconv.Itoa(sw.code)).Inc()
			if sw.failed {
				s.writeErrors.Inc()
			}
		}()
		if g != nil {
			if s.draining.Load() {
				s.rejected.With(g.class, "draining").Inc()
				s.retryLater(sw, http.StatusServiceUnavailable, "server is draining")
				return
			}
			release, err := g.acquire(r.Context())
			if err != nil {
				switch {
				case errors.Is(err, errQueueFull):
					s.retryLater(sw, http.StatusTooManyRequests, "admission queue full")
				case errors.Is(err, errQueueTimeout):
					s.retryLater(sw, http.StatusServiceUnavailable, "timed out waiting for capacity")
				default: // client went away
					s.retryLater(sw, http.StatusServiceUnavailable, "request canceled while queued")
				}
				return
			}
			defer release()
		}
		h(sw, r)
	})
}

// retryLater writes an error with a Retry-After hint.
func (s *Server) retryLater(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Retry-After", retryAfter)
	s.writeError(w, status, msg)
}
