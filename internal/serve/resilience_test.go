package serve

import (
	"bytes"
	"container/list"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/stagecache"
)

// blockingRun returns a RunFunc stub that signals entry on started and
// then blocks until its context dies or release closes.
func blockingRun(started chan<- struct{}, release <-chan struct{}) func(context.Context, core.Config) (*core.Artifacts, error) {
	return func(ctx context.Context, cfg core.Config) (*core.Artifacts, error) {
		started <- struct{}{}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
			return fakeArtifacts(), nil
		}
	}
}

// ---- cancellation ----

// TestRunDeadlineReturns504: a run exceeding the server's RunTimeout is
// cancelled (the pipeline sees its context die) and reported 504, with
// the cancellation counted by reason.
func TestRunDeadlineReturns504(t *testing.T) {
	started := make(chan struct{}, 1)
	s := newTestServer(t, Options{
		RunTimeout: 20 * time.Millisecond,
		RunFunc:    blockingRun(started, nil),
	})
	w := post(t, s.Handler(), "/v1/run", `{"seed": 1}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("timed-out run = %d, want 504: %s", w.Code, w.Body)
	}
	if got := s.runner.cancellations.With("deadline").Value(); got != 1 {
		t.Errorf("deadline cancellations = %d, want 1", got)
	}
}

// TestClientDisconnectCancelsRun: when the only client goes away, the
// flight's context is cancelled — the pipeline tears down promptly
// instead of running to completion for nobody.
func TestClientDisconnectCancelsRun(t *testing.T) {
	started := make(chan struct{}, 1)
	runCtxDone := make(chan struct{})
	s := newTestServer(t, Options{
		RunFunc: func(ctx context.Context, cfg core.Config) (*core.Artifacts, error) {
			started <- struct{}{}
			<-ctx.Done()
			close(runCtxDone)
			return nil, ctx.Err()
		},
	})
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(`{"seed": 1}`)).WithContext(ctx)
	w := httptest.NewRecorder()
	reqDone := make(chan struct{})
	go func() {
		s.Handler().ServeHTTP(w, req)
		close(reqDone)
	}()
	<-started
	cancel() // client hangs up
	select {
	case <-runCtxDone:
	case <-time.After(2 * time.Second):
		t.Fatal("pipeline context was not cancelled after client disconnect")
	}
	<-reqDone
	if got := s.runner.cancellations.With("disconnect").Value(); got != 1 {
		t.Errorf("disconnect cancellations = %d, want 1", got)
	}
}

// TestFlightSurvivesDepartingWaiter: two requests share one flight; the
// first one's deadline expires, the second still gets the result — a
// waiter's cancellation must not kill a shared run.
func TestFlightSurvivesDepartingWaiter(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := newTestServer(t, Options{RunFunc: blockingRun(started, release)})

	shortCtx, cancelShort := context.WithCancel(context.Background())
	firstDone := make(chan error, 1)
	go func() {
		_, err := s.runner.artifacts(shortCtx, "fp-x", tinyConfig())
		firstDone <- err
	}()
	<-started

	secondDone := make(chan error, 1)
	go func() {
		_, err := s.runner.artifacts(context.Background(), "fp-x", tinyConfig())
		secondDone <- err
	}()
	// Wait for the second caller to join the flight.
	for s.runner.collapsed.Value() == 0 {
		time.Sleep(time.Millisecond)
	}

	cancelShort()
	if err := <-firstDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("first waiter err=%v", err)
	}
	close(release)
	if err := <-secondDone; err != nil {
		t.Fatalf("second waiter err=%v — the shared flight was killed by the departing waiter", err)
	}
}

// ---- panic isolation at the serve boundary ----

// TestRunPanicIsolated: a panicking run yields a 500 and the daemon
// keeps serving.
func TestRunPanicIsolated(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{RunFunc: func(_ context.Context, cfg core.Config) (*core.Artifacts, error) {
		if calls.Add(1) == 1 {
			panic("run blew up")
		}
		return fakeArtifacts(), nil
	}})
	h := s.Handler()
	if w := post(t, h, "/v1/run", `{"seed": 1}`); w.Code != 500 || !strings.Contains(w.Body.String(), "run blew up") {
		t.Fatalf("panicking run = %d: %s", w.Code, w.Body)
	}
	if w := post(t, h, "/v1/run", `{"seed": 1}`); w.Code != 200 {
		t.Fatalf("daemon did not survive the panic: %d: %s", w.Code, w.Body)
	}
}

// TestStageErrorCarriesStageInBody: a typed stage failure surfaces the
// stage name as a structured field of the error envelope.
func TestStageErrorCarriesStageInBody(t *testing.T) {
	s := newTestServer(t, Options{RunFunc: func(_ context.Context, cfg core.Config) (*core.Artifacts, error) {
		return nil, fmt.Errorf("core wrapper: %w", &parallel.StageError{
			Stage: "trace-2011", Attempt: 2, Err: errors.New("synthetic")})
	}})
	w := post(t, s.Handler(), "/v1/run", `{"seed": 1}`)
	if w.Code != 500 {
		t.Fatalf("stage failure = %d: %s", w.Code, w.Body)
	}
	var body struct{ Error, Stage string }
	if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Stage != "trace-2011" || !strings.Contains(body.Error, "trace-2011") {
		t.Fatalf("error envelope = %+v", body)
	}
}

// ---- circuit breaker ----

// TestCircuitBreaker walks the full lifecycle on a fake clock: trip
// after threshold consecutive failures, fast-fail while open (without
// consuming runs), admit a half-open trial after the cooldown, re-open
// on trial failure, close on trial success.
func TestCircuitBreaker(t *testing.T) {
	var calls atomic.Int64
	var failing atomic.Bool
	failing.Store(true)
	s := newTestServer(t, Options{
		BreakerThreshold: 2,
		BreakerCooldown:  30 * time.Second,
		RunFunc: func(_ context.Context, cfg core.Config) (*core.Artifacts, error) {
			calls.Add(1)
			if failing.Load() {
				return nil, errors.New("config keeps crashing")
			}
			return fakeArtifacts(), nil
		},
	})
	now := time.Unix(1_700_000_000, 0)
	s.runner.now = func() time.Time { return now }
	h := s.Handler()

	for i := 0; i < 2; i++ {
		if w := post(t, h, "/v1/run", `{"seed": 9}`); w.Code != 500 {
			t.Fatalf("failure %d = %d: %s", i, w.Code, w.Body)
		}
	}
	// Breaker open: fast-fail 503 with Retry-After, no run consumed.
	w := post(t, h, "/v1/run", `{"seed": 9}`)
	if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), "circuit open") {
		t.Fatalf("open-circuit request = %d: %s", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("open-circuit 503 without Retry-After")
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("open circuit still consumed a run: calls=%d", got)
	}
	// A different configuration is unaffected (breakers are per
	// fingerprint). It fails too, but it *runs*.
	if w := post(t, h, "/v1/run", `{"seed": 10}`); w.Code != 500 {
		t.Fatalf("other config = %d, want its own 500", w.Code)
	}
	if calls.Load() != 3 {
		t.Fatal("other fingerprint did not run")
	}

	// Cooldown passes; the trial run is admitted and fails → re-open.
	now = now.Add(31 * time.Second)
	if w := post(t, h, "/v1/run", `{"seed": 9}`); w.Code != 500 {
		t.Fatalf("half-open trial = %d: %s", w.Code, w.Body)
	}
	if w := post(t, h, "/v1/run", `{"seed": 9}`); w.Code != http.StatusServiceUnavailable {
		t.Fatalf("after failed trial = %d, want 503", w.Code)
	}

	// Second cooldown; the config is healthy now → trial succeeds,
	// circuit closes, subsequent runs flow.
	failing.Store(false)
	now = now.Add(31 * time.Second)
	if w := post(t, h, "/v1/run", `{"seed": 9}`); w.Code != 200 {
		t.Fatalf("healthy trial = %d: %s", w.Code, w.Body)
	}
	if got := s.runner.breakerOpenG.Value(); got != 0 {
		t.Errorf("open-circuits gauge = %d after close, want 0", got)
	}
	for _, tr := range []struct {
		state string
		want  uint64
	}{{"open", 2}, {"half_open", 2}, {"closed", 1}} {
		if got := s.runner.breakerTransitions.With(tr.state).Value(); got != tr.want {
			t.Errorf("transitions{%s} = %d, want %d", tr.state, got, tr.want)
		}
	}
	// Cancellations never feed the breaker.
	if got := s.runner.breakers; len(got) != 1 { // only seed=10's breaker remains
		t.Errorf("breakers left = %d, want 1", len(got))
	}
}

// TestCancellationDoesNotTripBreaker: repeated client disconnects must
// not open the circuit — they say nothing about the config's health.
func TestCancellationDoesNotTripBreaker(t *testing.T) {
	started := make(chan struct{}, 8)
	s := newTestServer(t, Options{
		BreakerThreshold: 2,
		RunTimeout:       10 * time.Millisecond,
		RunFunc:          blockingRun(started, nil),
	})
	h := s.Handler()
	for i := 0; i < 3; i++ {
		if w := post(t, h, "/v1/run", `{"seed": 4}`); w.Code != http.StatusGatewayTimeout {
			t.Fatalf("attempt %d = %d, want 504", i, w.Code)
		}
	}
	if len(s.runner.breakers) != 0 {
		t.Error("cancellations tripped the breaker")
	}
}

// ---- admission edge cases ----

// TestQueuedDeadlineReleasesSlot: a request whose own deadline expires
// while queued gets 503, and the queue slot it held is released — the
// gate must not leak capacity to dead waiters.
func TestQueuedDeadlineReleasesSlot(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := newTestServer(t, Options{
		RunLimit: 1, RunQueue: 1, QueueTimeout: 10 * time.Second,
		RunFunc: blockingRun(started, release),
	})
	h := s.Handler()

	holderDone := make(chan int, 1)
	go func() { holderDone <- post(t, h, "/v1/run", `{"seed": 1}`).Code }()
	<-started // slot occupied

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/run", strings.NewReader(`{"seed": 2}`)).WithContext(ctx)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("queued-expired request = %d, want 503: %s", w.Code, w.Body)
	}
	if got := s.rejected.With("run", "canceled").Value(); got != 1 {
		t.Errorf("canceled rejections = %d, want 1", got)
	}
	if got := s.runGate.waiting(); got != 0 {
		t.Fatalf("queue depth = %d after expiry, want 0 (slot leaked)", got)
	}

	// Prove the queue slot is reusable: a fresh request queues, the
	// holder finishes, and the queued request is admitted and completes.
	close(release)
	if code := <-holderDone; code != 200 {
		t.Fatalf("holder = %d", code)
	}
	if w := post(t, h, "/v1/run", `{"seed": 3}`); w.Code != 200 {
		t.Fatalf("post-expiry request = %d, want 200", w.Code)
	}
}

// TestDrainRacesInFlightRun: SIGTERM-style drain beginning while a
// POST /v1/run is inside the pipeline — the in-flight run completes
// 200, new runs are refused 503, and Serve/Shutdown both return nil.
func TestDrainRacesInFlightRun(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	s := newTestServer(t, Options{RunFunc: blockingRun(started, release)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	inflight := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/run", "application/json", strings.NewReader(`{"seed": 1}`))
		if err != nil {
			inflight <- -1
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		inflight <- resp.StatusCode
	}()
	<-started

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- s.Shutdown(ctx)
	}()
	// Drain flag flips synchronously at the top of Shutdown; wait for it
	// to be visible, then race a new run against the drain.
	for !s.draining.Load() {
		time.Sleep(time.Millisecond)
	}
	if w := post(t, s.Handler(), "/v1/run", `{"seed": 2}`); w.Code != http.StatusServiceUnavailable {
		t.Errorf("new run during drain = %d, want 503", w.Code)
	}

	close(release)
	if code := <-inflight; code != 200 {
		t.Errorf("in-flight run during drain = %d, want 200", code)
	}
	if err := <-shutDone; err != nil {
		t.Errorf("Shutdown = %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Errorf("Serve = %v", err)
	}
}

// ---- stale-while-error ----

// TestStaleWhileError: after a good render, a later identical request
// whose run now fails (cache cleared, pipeline broken) degrades to the
// last good body — same bytes, same ETag, marked via X-Rcpt-Stale —
// instead of a bare 500.
func TestStaleWhileError(t *testing.T) {
	var calls atomic.Int64
	s := newTestServer(t, Options{RunFunc: func(_ context.Context, cfg core.Config) (*core.Artifacts, error) {
		if calls.Add(1) == 1 {
			return core.RunSequential(cfg)
		}
		return nil, errors.New("pipeline is on fire")
	}})
	h := s.Handler()

	w1 := get(t, h, "/v1/tables/T5?format=json")
	if w1.Code != 200 {
		t.Fatalf("first render = %d: %s", w1.Code, w1.Body)
	}
	etag := w1.Header().Get("ETag")

	// Force the full failure path: drop the rendered-body cache and the
	// completed-run LRU so the next request must re-execute the (now
	// broken) pipeline.
	dropRenderCache(t, s, nil)
	s.runner.mu.Lock()
	s.runner.ll.Init()
	s.runner.items = map[string]*list.Element{}
	s.runner.mu.Unlock()

	w2 := get(t, h, "/v1/tables/T5?format=json")
	if w2.Code != 200 {
		t.Fatalf("stale render = %d, want 200 degradation: %s", w2.Code, w2.Body)
	}
	if w2.Header().Get("X-Rcpt-Stale") != "error" {
		t.Error("stale response not marked with X-Rcpt-Stale: error")
	}
	if w2.Header().Get("ETag") != etag || !strings.Contains(w2.Body.String(), w1.Body.String()[:20]) {
		t.Error("stale response is not the last good body")
	}
	if got := w2.Header().Get("X-Rcpt-Stale-Fingerprint"); got != s.BaseFingerprint() {
		t.Errorf("stale fingerprint = %q, want the base run %q that rendered the body", got, s.BaseFingerprint())
	}
	if got := s.staleServed.Value(); got != 1 {
		t.Errorf("stale served counter = %d, want 1", got)
	}

	// POST /v1/run never degrades: callers get the typed truth.
	if w := post(t, h, "/v1/run", `{"seed": 77}`); w.Code != 500 {
		t.Errorf("run with broken pipeline = %d, want 500", w.Code)
	}
}

// ---- crash-safe cache persistence ----

// TestWarmStartServesSameETag: a server spills its rendered bodies;
// a second server over the same directory — with a pipeline that can
// only fail — serves the same table with the identical ETag purely from
// the warm-started cache. This is the in-process version of the CI
// kill-and-restart smoke.
func TestWarmStartServesSameETag(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Options{CacheDir: dir})
	w1 := get(t, s1.Handler(), "/v1/tables/T5?format=json")
	if w1.Code != 200 {
		t.Fatalf("first server render = %d: %s", w1.Code, w1.Body)
	}
	etag := w1.Header().Get("ETag")
	if got := metricValue(t, s1.Handler(), `rcpt_cache_spill_total{outcome="ok"}`); got == 0 {
		t.Fatal("nothing spilled to disk")
	}

	s2 := newTestServer(t, Options{
		CacheDir: dir,
		RunFunc: func(context.Context, core.Config) (*core.Artifacts, error) {
			t.Error("restarted server re-ran the pipeline despite a warm cache")
			return nil, errors.New("must not run")
		},
	})
	if got := metricValue(t, s2.Handler(), `rcpt_cache_warmstart_total{outcome="restored"}`); got == 0 {
		t.Fatal("no entries restored at warm start")
	}
	w2 := get(t, s2.Handler(), "/v1/tables/T5?format=json")
	if w2.Code != 200 {
		t.Fatalf("warm-started render = %d: %s", w2.Code, w2.Body)
	}
	if w2.Header().Get("ETag") != etag {
		t.Fatalf("ETag changed across restart: %q vs %q", w2.Header().Get("ETag"), etag)
	}
	if !strings.Contains(w1.Body.String(), w2.Body.String()) {
		t.Fatal("bodies differ across restart")
	}
}

// TestWarmStartRejectsCorruptSpill: a truncated/garbled spill file is
// detected by its checksum, counted, removed, and never served.
func TestWarmStartRejectsCorruptSpill(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Options{CacheDir: dir})
	if w := get(t, s1.Handler(), "/v1/tables/T5?format=json"); w.Code != 200 {
		t.Fatalf("render = %d", w.Code)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.stg"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no spill files: %v", err)
	}
	// Flip a byte inside the body payload of one envelope.
	blob, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-2] ^= 0xff
	if err := os.WriteFile(files[0], blob, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Options{CacheDir: dir})
	if got := metricValue(t, s2.Handler(), `rcpt_cache_warmstart_total{outcome="corrupt"}`); got != 1 {
		t.Errorf("corrupt warm-start count = %v, want 1", got)
	}
	if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
		t.Error("corrupt spill file was not removed")
	}
}

// TestSpillSurvivesAbruptStop: simulate a crash by leaving a temp file
// behind; the next boot sweeps it and still restores the good entries.
func TestSpillSurvivesAbruptStop(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Options{CacheDir: dir})
	if w := get(t, s1.Handler(), "/v1/tables/T5?format=json"); w.Code != 200 {
		t.Fatalf("render = %d", w.Code)
	}
	// A torn mid-spill temp file, as a kill -9 would leave it.
	torn := filepath.Join(dir, durable.TempPrefix+"torn")
	if err := os.WriteFile(torn, []byte("rcpt-stg/1\ntrunc"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := newTestServer(t, Options{CacheDir: dir})
	if got := metricValue(t, s2.Handler(), `rcpt_cache_warmstart_total{outcome="restored"}`); got == 0 {
		t.Fatal("good entries not restored next to torn temp file")
	}
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Error("torn temp file not swept at boot")
	}
}

// TestDiskReadThrough: an entry evicted from memory but present on disk
// is served from the spill (and counted) without re-rendering.
func TestDiskReadThrough(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	s := newTestServer(t, Options{
		CacheDir: dir,
		RunFunc: func(_ context.Context, cfg core.Config) (*core.Artifacts, error) {
			calls.Add(1)
			return core.RunSequential(cfg)
		},
	})
	h := s.Handler()
	w1 := get(t, h, "/v1/tables/T5?format=json")
	if w1.Code != 200 {
		t.Fatalf("render = %d", w1.Code)
	}
	// Evict from memory only.
	diskHits := &obs.Counter{}
	dropRenderCache(t, s, &stagecache.Metrics{DiskHits: diskHits})

	w2 := get(t, h, "/v1/tables/T5?format=json")
	if w2.Code != 200 || w2.Header().Get("ETag") != w1.Header().Get("ETag") {
		t.Fatalf("read-through = %d, etag %q vs %q", w2.Code, w2.Header().Get("ETag"), w1.Header().Get("ETag"))
	}
	if got := diskHits.Value(); got != 1 {
		t.Errorf("disk hits = %d, want 1", got)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("pipeline ran %d times, want 1 (disk should have served)", got)
	}
}

// TestWarmStartFeedsStaleWhileError: bodies a previous process left in
// CacheDir are last-good bodies too. A server with another base config,
// whose pipeline can only fail, degrades to the warm-started body of the
// same artifact, marked stale. It names no run: a body stored under its
// render key may come from any run that shares the key.
func TestWarmStartFeedsStaleWhileError(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Options{CacheDir: dir})
	w1 := get(t, s1.Handler(), "/v1/tables/T5?format=json")
	if w1.Code != 200 {
		t.Fatalf("first server render = %d: %s", w1.Code, w1.Body)
	}

	cfg := tinyConfig()
	cfg.Seed++
	s2 := newTestServer(t, Options{
		BaseConfig: cfg,
		CacheDir:   dir,
		RunFunc: func(context.Context, core.Config) (*core.Artifacts, error) {
			return nil, errors.New("pipeline is on fire")
		},
	})
	w2 := get(t, s2.Handler(), "/v1/tables/T5?format=json")
	if w2.Code != 200 || w2.Header().Get("X-Rcpt-Stale") != "error" {
		t.Fatalf("render with failing pipeline = %d, X-Rcpt-Stale %q; want 200 stale", w2.Code, w2.Header().Get("X-Rcpt-Stale"))
	}
	if !bytes.Equal(w2.Body.Bytes(), w1.Body.Bytes()) || w2.Header().Get("ETag") != w1.Header().Get("ETag") {
		t.Fatal("stale body is not the warm-started one")
	}
	if got, ok := w2.Header()["X-Rcpt-Stale-Fingerprint"]; ok {
		t.Fatalf("stale fingerprint = %q for a warm-started body, want the header absent", got)
	}
}

// dropRenderCache replaces s's render cache with an empty one over the
// same directory: memory is lost, the disk tier is not.
func dropRenderCache(t *testing.T, s *Server, m *stagecache.Metrics) {
	t.Helper()
	c, err := newRenderCache(s.opts.CacheBytes, s.opts.CacheDir, m)
	if err != nil {
		t.Fatal(err)
	}
	s.cache = c
}

// ---- metrics ----

// TestMetricsGoldenExposition pins the full /metrics exposition of a
// fresh server: every registered family (including the new resilience
// counters) in deterministic order. Vec families with no series yet are
// skipped by the writer; unlabeled families appear at zero. Regenerate
// with `go test ./internal/serve -run Golden -update`.
func TestMetricsGoldenExposition(t *testing.T) {
	s := newTestServer(t, Options{RunFunc: func(context.Context, core.Config) (*core.Artifacts, error) {
		return fakeArtifacts(), nil
	}})
	w := get(t, s.Handler(), "/metrics")
	if w.Code != 200 {
		t.Fatalf("metrics = %d", w.Code)
	}
	checkGolden(t, "metrics_fresh.golden.txt", w.Body.Bytes())
}
