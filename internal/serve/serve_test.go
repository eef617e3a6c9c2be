package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/sched"
)

var update = flag.Bool("update", false, "rewrite golden files")

// tinyConfig is a fast real pipeline configuration: small cohorts and
// two early trace years (the later campus models are far heavier; two
// years rather than one so year-series figures still have a line to
// draw).
func tinyConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.N2011, cfg.N2024 = 30, 40
	cfg.TraceYears = []int{2011, 2012}
	cfg.SimYear = 2011
	cfg.PanelN = 0
	cfg.NoiseRate = 0
	cfg.Workers = 1
	return cfg
}

func newTestServer(t *testing.T, opts Options) *Server {
	t.Helper()
	if opts.BaseConfig.N2011 == 0 && opts.BaseConfig.N2024 == 0 && len(opts.BaseConfig.TraceYears) == 0 {
		opts.BaseConfig = tinyConfig()
	}
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return s
}

// fakeArtifacts is the minimal Artifacts a run summary can be built
// from, for tests that stub out the pipeline.
func fakeArtifacts() *core.Artifacts {
	return &core.Artifacts{Sim: &sched.Result{}}
}

func get(t *testing.T, h http.Handler, path string, header ...string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	for i := 0; i+1 < len(header); i += 2 {
		req.Header.Set(header[i], header[i+1])
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func post(t *testing.T, h http.Handler, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run `go test ./internal/serve -update` to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("body differs from %s:\ngot:  %s\nwant: %s", path, got, want)
	}
}

// ---- probes, index, experiments ----

func TestProbes(t *testing.T) {
	h := newTestServer(t, Options{}).Handler()
	if w := get(t, h, "/healthz"); w.Code != 200 || w.Body.String() != "ok\n" {
		t.Errorf("healthz = %d %q", w.Code, w.Body.String())
	}
	if w := get(t, h, "/readyz"); w.Code != 200 || w.Body.String() != "ready\n" {
		t.Errorf("readyz = %d %q", w.Code, w.Body.String())
	}
	if w := get(t, h, "/"); w.Code != 200 || !strings.Contains(w.Body.String(), "/v1/tables/{id}") {
		t.Errorf("index = %d %q", w.Code, w.Body.String())
	}
	if w := get(t, h, "/nosuch"); w.Code != 404 {
		t.Errorf("unknown path = %d, want 404", w.Code)
	}
}

func TestExperimentsGolden(t *testing.T) {
	h := newTestServer(t, Options{}).Handler()
	w := get(t, h, "/v1/experiments")
	if w.Code != 200 {
		t.Fatalf("experiments = %d: %s", w.Code, w.Body)
	}
	checkGolden(t, "experiments.golden.json", w.Body.Bytes())
}

// ---- tables and figures ----

func TestTableGoldenAndETag(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()

	w := get(t, h, "/v1/tables/T5?format=json")
	if w.Code != 200 {
		t.Fatalf("T5 = %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	etag := w.Header().Get("ETag")
	if want := etagOf(sha256.Sum256(w.Body.Bytes())); etag != want {
		t.Errorf("ETag = %q, want content hash %q", etag, want)
	}
	checkGolden(t, "table_t5.golden.json", w.Body.Bytes())

	// Second request: served from cache, byte-identical, same ETag.
	hits := metricValue(t, h, "rcpt_cache_hits_total")
	w2 := get(t, h, "/v1/tables/T5?format=json")
	if !bytes.Equal(w.Body.Bytes(), w2.Body.Bytes()) {
		t.Error("repeated render not byte-identical")
	}
	if w2.Header().Get("ETag") != etag {
		t.Error("repeated render changed the ETag")
	}
	if got := metricValue(t, h, "rcpt_cache_hits_total"); got != hits+1 {
		t.Errorf("cache hits = %v, want %v", got, hits+1)
	}

	// Conditional request round-trip: If-None-Match answers 304 with no
	// body.
	w3 := get(t, h, "/v1/tables/T5?format=json", "If-None-Match", etag)
	if w3.Code != http.StatusNotModified {
		t.Fatalf("conditional GET = %d, want 304", w3.Code)
	}
	if w3.Body.Len() != 0 {
		t.Errorf("304 carried a %d-byte body", w3.Body.Len())
	}
	if w4 := get(t, h, "/v1/tables/T5?format=json", "If-None-Match", `"stale"`); w4.Code != 200 {
		t.Errorf("stale-tag GET = %d, want 200", w4.Code)
	}
}

func TestTableFormatsAndErrors(t *testing.T) {
	h := newTestServer(t, Options{}).Handler()
	for format, want := range map[string]string{
		"txt": "text/plain; charset=utf-8",
		"csv": "text/csv; charset=utf-8",
		"md":  "text/markdown; charset=utf-8",
	} {
		w := get(t, h, "/v1/tables/T5?format="+format)
		if w.Code != 200 || w.Body.Len() == 0 {
			t.Errorf("format %s: code %d, %d bytes", format, w.Code, w.Body.Len())
		}
		if ct := w.Header().Get("Content-Type"); ct != want {
			t.Errorf("format %s: Content-Type %q, want %q", format, ct, want)
		}
	}
	if w := get(t, h, "/v1/tables/T5?format=xml"); w.Code != 400 {
		t.Errorf("unknown format = %d, want 400", w.Code)
	}
	if w := get(t, h, "/v1/tables/T99"); w.Code != 404 {
		t.Errorf("unknown table = %d, want 404", w.Code)
	}
	if w := get(t, h, "/v1/tables/F1"); w.Code != 400 {
		t.Errorf("figure via tables = %d, want 400", w.Code)
	}
	if w := get(t, h, "/v1/tables/T5?run=deadbeef"); w.Code != 404 {
		t.Errorf("unknown run fingerprint = %d, want 404", w.Code)
	}
}

func TestFigure(t *testing.T) {
	h := newTestServer(t, Options{}).Handler()
	w := get(t, h, "/v1/figures/F1")
	if w.Code != 200 {
		t.Fatalf("F1 = %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "image/svg+xml" {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(w.Body.String(), "<svg") {
		t.Error("figure body is not SVG")
	}
	if w2 := get(t, h, "/v1/figures/T5"); w2.Code != 400 {
		t.Errorf("table via figures = %d, want 400", w2.Code)
	}
}

// ---- POST /v1/run ----

// TestRunCachedDeterministic is the acceptance test: two requests for
// the same (config, seed) return byte-identical bodies with matching
// ETags, the pipeline executes exactly once, and the second response
// comes from the cache (hit counter increments).
func TestRunCachedDeterministic(t *testing.T) {
	var runs atomic.Int64
	s := newTestServer(t, Options{RunFunc: func(_ context.Context, cfg core.Config) (*core.Artifacts, error) {
		runs.Add(1)
		return core.RunSequential(cfg)
	}})
	h := s.Handler()
	body := `{"seed": 7, "n2011": 25}`

	w1 := post(t, h, "/v1/run", body)
	if w1.Code != 200 {
		t.Fatalf("run 1 = %d: %s", w1.Code, w1.Body)
	}
	hits := metricValue(t, h, "rcpt_cache_hits_total")
	w2 := post(t, h, "/v1/run", body)
	if w2.Code != 200 {
		t.Fatalf("run 2 = %d: %s", w2.Code, w2.Body)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Error("identical (config, seed) produced different bodies")
	}
	e1, e2 := w1.Header().Get("ETag"), w2.Header().Get("ETag")
	if e1 == "" || e1 != e2 {
		t.Errorf("ETags differ: %q vs %q", e1, e2)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("pipeline executed %d times, want exactly 1", got)
	}
	if got := metricValue(t, h, "rcpt_cache_hits_total"); got != hits+1 {
		t.Errorf("cache hits = %v, want %v (second response served from cache)", got, hits+1)
	}

	// The summary exposes the fingerprint; tables of that run resolve.
	var sum struct{ Fingerprint string }
	if err := json.Unmarshal(w1.Body.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if w := get(t, h, "/v1/tables/T1?run="+sum.Fingerprint); w.Code != 200 {
		t.Errorf("table against run fingerprint = %d: %s", w.Code, w.Body)
	}
}

// TestRepeatedRunLinkResolves: a repeated POST /v1/run after its run
// left the run cache must hand out a tablesPath that resolves — the
// cached summary alone would point at a 404 that tells the client to
// POST again, forever.
func TestRepeatedRunLinkResolves(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	first := post(t, h, "/v1/run", `{"seed": 1}`)
	if first.Code != 200 {
		t.Fatalf("run = %d: %s", first.Code, first.Body)
	}
	for seed := 2; seed <= 5; seed++ { // evict seed 1 from the 4-run cache
		if w := post(t, h, "/v1/run", fmt.Sprintf(`{"seed": %d}`, seed)); w.Code != 200 {
			t.Fatalf("run seed %d = %d: %s", seed, w.Code, w.Body)
		}
	}
	again := post(t, h, "/v1/run", `{"seed": 1}`)
	if again.Code != 200 || !bytes.Equal(again.Body.Bytes(), first.Body.Bytes()) ||
		again.Header().Get("ETag") != first.Header().Get("ETag") {
		t.Fatalf("repeated run = %d, body or ETag changed", again.Code)
	}
	var sum struct{ TablesPath string }
	if err := json.Unmarshal(again.Body.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if w := get(t, h, strings.Replace(sum.TablesPath, "{id}", "T5", 1)); w.Code != 200 {
		t.Fatalf("GET %s = %d, want 200: %s", sum.TablesPath, w.Code, w.Body)
	}
}

// TestRunSingleflight: N concurrent identical runs collapse onto one
// pipeline execution.
func TestRunSingleflight(t *testing.T) {
	var runs atomic.Int64
	release := make(chan struct{})
	s := newTestServer(t, Options{RunFunc: func(_ context.Context, cfg core.Config) (*core.Artifacts, error) {
		runs.Add(1)
		<-release
		return fakeArtifacts(), nil
	}})
	h := s.Handler()

	const n = 8
	var wg sync.WaitGroup
	codes := make([]int, n)
	bodies := make([][]byte, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := post(t, h, "/v1/run", `{"seed": 99}`)
			codes[i], bodies[i] = w.Code, w.Body.Bytes()
		}(i)
	}
	// Let the flights pile up on the one execution, then release it.
	for runs.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != 200 {
			t.Fatalf("request %d = %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body differs", i)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("pipeline executed %d times for %d concurrent identical runs, want 1", got, n)
	}
	if got := s.runner.collapsed.Value(); got == 0 {
		t.Error("collapsed counter = 0, want > 0")
	}
}

func TestRunBadRequests(t *testing.T) {
	s := newTestServer(t, Options{MaxCohort: 100, RunFunc: func(context.Context, core.Config) (*core.Artifacts, error) {
		t.Error("pipeline executed for an invalid request")
		return fakeArtifacts(), nil
	}})
	h := s.Handler()
	cases := map[string]string{
		"malformed JSON":   `{"seed": `,
		"unknown field":    `{"sneed": 7}`,
		"unknown policy":   `{"policy": "lifo"}`,
		"cohort cap":       `{"n2024": 101}`,
		"panel cap":        `{"panelN": 101}`,
		"no trace years":   `{"traceYears": []}`,
		"sim year missing": `{"traceYears": [2011, 2012], "simYear": 2024}`,
	}
	for name, body := range cases {
		if w := post(t, h, "/v1/run", body); w.Code != 400 {
			t.Errorf("%s: code %d, want 400 (%s)", name, w.Code, w.Body)
		}
	}
}

// TestRunErrorNotCached: a failed run reports 500 and the next attempt
// re-executes.
func TestRunErrorNotCached(t *testing.T) {
	var runs atomic.Int64
	s := newTestServer(t, Options{RunFunc: func(_ context.Context, cfg core.Config) (*core.Artifacts, error) {
		if runs.Add(1) == 1 {
			return nil, fmt.Errorf("transient failure")
		}
		return fakeArtifacts(), nil
	}})
	h := s.Handler()
	if w := post(t, h, "/v1/run", `{"seed": 5}`); w.Code != 500 {
		t.Fatalf("failing run = %d, want 500", w.Code)
	}
	if w := post(t, h, "/v1/run", `{"seed": 5}`); w.Code != 200 {
		t.Fatalf("retry = %d, want 200 (failure must not be cached)", w.Code)
	}
	if got := s.runner.errorsTotal.Value(); got != 1 {
		t.Errorf("pipeline errors = %d, want 1", got)
	}
}

// ---- admission control ----

// TestAdmissionQueueFull: with one slot occupied and the queue full,
// the next run is rejected 429 with a Retry-After hint.
func TestAdmissionQueueFull(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	s := newTestServer(t, Options{
		RunLimit: 1, RunQueue: 1, QueueTimeout: 5 * time.Second,
		RunFunc: func(_ context.Context, cfg core.Config) (*core.Artifacts, error) {
			started <- struct{}{}
			<-release
			return fakeArtifacts(), nil
		},
	})
	h := s.Handler()
	defer close(release)

	done := make(chan int, 2)
	go func() { done <- post(t, h, "/v1/run", `{"seed": 1}`).Code }()
	<-started // slot holder is inside the pipeline
	go func() { done <- post(t, h, "/v1/run", `{"seed": 2}`).Code }()
	// Wait until the second request occupies the queue slot.
	for s.runGate.waiting() == 0 {
		time.Sleep(time.Millisecond)
	}

	w := post(t, h, "/v1/run", `{"seed": 3}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("third run = %d, want 429: %s", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if got := s.rejected.With("run", "queue_full").Value(); got != 1 {
		t.Errorf("queue_full rejections = %d, want 1", got)
	}
}

// TestAdmissionTimeout: a queued request whose wait exceeds QueueTimeout
// is rejected 503.
func TestAdmissionTimeout(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s := newTestServer(t, Options{
		RunLimit: 1, RunQueue: 4, QueueTimeout: 30 * time.Millisecond,
		RunFunc: func(_ context.Context, cfg core.Config) (*core.Artifacts, error) {
			started <- struct{}{}
			<-release
			return fakeArtifacts(), nil
		},
	})
	h := s.Handler()
	defer close(release)

	go post(t, h, "/v1/run", `{"seed": 1}`)
	<-started
	w := post(t, h, "/v1/run", `{"seed": 2}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("timed-out run = %d, want 503: %s", w.Code, w.Body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if got := s.rejected.With("run", "timeout").Value(); got != 1 {
		t.Errorf("timeout rejections = %d, want 1", got)
	}
}

// ---- responses ----

func TestResponsesValidation(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	// One structurally valid but rule-breaking response (off-instrument
	// choice, required questions unanswered) and one malformed line.
	bad := `{"id":"r1","cohort":2024,"weight":1,"answers":{"field":{"kind":"single","choice":"astrology"}}}` + "\n"
	w := post(t, h, "/v1/responses", bad)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("invalid batch = %d, want 422: %s", w.Code, w.Body)
	}
	var rep struct {
		Received, Valid, Invalid int
		Results                  []struct {
			ID     string
			Valid  bool
			Errors []struct{ Question, Reason string }
		}
	}
	if err := json.Unmarshal(w.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Received != 1 || rep.Valid != 0 || rep.Invalid != 1 {
		t.Errorf("report = %+v", rep)
	}
	if len(rep.Results) != 1 || rep.Results[0].Valid || len(rep.Results[0].Errors) == 0 {
		t.Errorf("results = %+v", rep.Results)
	}
	if got := s.validated.With("invalid").Value(); got != 1 {
		t.Errorf("invalid verdicts metric = %d, want 1", got)
	}
	if w := post(t, h, "/v1/responses", `{"id": `); w.Code != 400 {
		t.Errorf("malformed NDJSON = %d, want 400", w.Code)
	}
	if w := post(t, h, "/v1/responses", ""); w.Code != 200 {
		t.Errorf("empty batch = %d, want 200", w.Code)
	}
}

// ---- stats ----

func TestStatsEndpoints(t *testing.T) {
	h := newTestServer(t, Options{}).Handler()

	w := get(t, h, "/v1/stats/chisquare?rows=2&cols=2&counts=30,45,82,20")
	if w.Code != 200 {
		t.Fatalf("chisquare = %d: %s", w.Code, w.Body)
	}
	var chi struct {
		Test string
		Stat float64
		DF   int
		P    float64
	}
	if err := json.Unmarshal(w.Body.Bytes(), &chi); err != nil {
		t.Fatal(err)
	}
	if chi.Test != "pearson" || chi.DF != 1 || chi.Stat <= 0 || chi.P <= 0 || chi.P >= 0.05 {
		t.Errorf("chisquare = %+v", chi)
	}

	w = get(t, h, "/v1/stats/ci?successes=42&n=100")
	var ci struct{ Share, Lo, Hi, Level float64 }
	if err := json.Unmarshal(w.Body.Bytes(), &ci); err != nil {
		t.Fatal(err)
	}
	if w.Code != 200 || ci.Share != 0.42 || !(ci.Lo < 0.42 && 0.42 < ci.Hi) || ci.Level != 0.95 {
		t.Errorf("ci = %d %+v", w.Code, ci)
	}

	w = get(t, h, "/v1/stats/oddsratio?a=10&b=20&c=30&d=40")
	var or struct{ OddsRatio, Lo, Hi float64 }
	if err := json.Unmarshal(w.Body.Bytes(), &or); err != nil {
		t.Fatal(err)
	}
	if w.Code != 200 || or.OddsRatio <= 0 || !(or.Lo < or.OddsRatio && or.OddsRatio < or.Hi) {
		t.Errorf("oddsratio = %d %+v", w.Code, or)
	}

	for _, path := range []string{
		"/v1/stats/chisquare?rows=2&cols=2&counts=1,2,3", // wrong count
		"/v1/stats/chisquare?rows=2&cols=2&counts=1,2,3,x",
		"/v1/stats/chisquare?rows=2&cols=2&counts=1,2,3,4&test=anova",
		// A shape the counts cannot fill is refused before rows×cols
		// cells are allocated, including one whose product overflows.
		"/v1/stats/chisquare?rows=50000&cols=50000&counts=1,2,3,4",
		"/v1/stats/chisquare?rows=4&cols=4611686018427387905&counts=1,2,3,4",
		"/v1/stats/ci?successes=42", // n missing
		// Non-finite parameters would fail the JSON encode after the
		// header is sent.
		"/v1/stats/ci?successes=1&n=NaN",
		"/v1/stats/ci?successes=Inf&n=Inf",
		"/v1/stats/oddsratio?a=NaN&b=1&c=1&d=1",
		"/v1/stats/oddsratio?a=1&b=2&c=3",
	} {
		w := get(t, h, path)
		var body struct{ Error string }
		if err := json.Unmarshal(w.Body.Bytes(), &body); w.Code != 400 || err != nil || body.Error == "" {
			t.Errorf("%s = %d %q, want a 400 JSON error", path, w.Code, w.Body)
		}
	}
}

// ---- metrics ----

func TestMetricsExposition(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	get(t, h, "/healthz")
	w := get(t, h, "/metrics")
	if w.Code != 200 {
		t.Fatalf("metrics = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q", ct)
	}
	body := w.Body.String()
	for _, line := range []string{
		"# TYPE rcpt_http_requests_total counter",
		`rcpt_http_requests_total{route="GET /healthz",code="200"} 1`,
		"# TYPE rcpt_http_request_seconds histogram",
		"# TYPE rcpt_cache_hits_total counter",
		"rcpt_http_in_flight 1", // the /metrics request itself
	} {
		if !strings.Contains(body, line) {
			t.Errorf("metrics output missing %q", line)
		}
	}
}

// ---- draining and graceful shutdown ----

// TestDrainingRejects: once Shutdown has been initiated, readiness and
// gated routes answer 503 while liveness stays 200.
func TestDrainingRejects(t *testing.T) {
	s := newTestServer(t, Options{})
	h := s.Handler()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if w := get(t, h, "/healthz"); w.Code != 200 {
		t.Errorf("healthz while draining = %d, want 200", w.Code)
	}
	if w := get(t, h, "/readyz"); w.Code != 503 {
		t.Errorf("readyz while draining = %d, want 503", w.Code)
	}
	w := get(t, h, "/v1/experiments")
	if w.Code != 503 {
		t.Errorf("gated route while draining = %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("draining rejection without Retry-After")
	}
}

// TestGracefulDrain drives a real listener: a slow in-flight request
// survives Shutdown and completes 200, and both Serve and Shutdown
// return nil.
func TestGracefulDrain(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	s := newTestServer(t, Options{RunFunc: func(_ context.Context, cfg core.Config) (*core.Artifacts, error) {
		started <- struct{}{}
		<-release
		return fakeArtifacts(), nil
	}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()

	type result struct {
		code int
		err  error
	}
	reqDone := make(chan result, 1)
	go func() {
		resp, err := http.Post("http://"+ln.Addr().String()+"/v1/run", "application/json",
			strings.NewReader(`{"seed": 1}`))
		if err != nil {
			reqDone <- result{err: err}
			return
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		reqDone <- result{code: resp.StatusCode, err: resp.Body.Close()}
	}()
	<-started // request is in flight inside the pipeline

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutDone <- s.Shutdown(ctx)
	}()
	time.Sleep(20 * time.Millisecond) // let Shutdown begin draining
	close(release)

	res := <-reqDone
	if res.err != nil || res.code != 200 {
		t.Errorf("in-flight request = %d, %v; want 200, nil", res.code, res.err)
	}
	if err := <-shutDone; err != nil {
		t.Errorf("Shutdown = %v, want nil", err)
	}
	if err := <-serveErr; err != nil {
		t.Errorf("Serve = %v, want nil after clean shutdown", err)
	}
}

// TestConcurrentRenders hammers cached and uncached render paths from
// many goroutines against real artifacts; under -race this is the
// serving layer's end-to-end race test.
func TestConcurrentRenders(t *testing.T) {
	s := newTestServer(t, Options{})
	if err := s.Warm(); err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	paths := []string{
		"/v1/tables/T1", "/v1/tables/T2?format=csv", "/v1/tables/T5?format=md",
		"/v1/figures/F1", "/v1/experiments", "/metrics",
		"/v1/stats/ci?successes=10&n=50",
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				p := paths[(g+i)%len(paths)]
				if w := get(t, h, p); w.Code != 200 {
					t.Errorf("%s = %d", p, w.Code)
				}
			}
		}(g)
	}
	wg.Wait()
}
