package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// metricValue extracts one un-labeled counter/gauge sample from the
// /metrics exposition (0 if the family is absent).
func metricValue(t *testing.T, h http.Handler, name string) float64 {
	t.Helper()
	body := get(t, h, "/metrics").Body.String()
	for _, line := range strings.Split(body, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parsing %s sample %q: %v", name, rest, err)
			}
			return v
		}
	}
	return 0
}

// TestStageCacheIncrementalRun is the serving-layer acceptance test for
// the Merkle stage cache: a second POST /v1/run differing only in the
// scheduling policy — a late-DAG parameter — reuses every stage the
// change does not reach (exactly one miss) and still produces bodies
// and ETags byte-identical to a server that caches nothing.
func TestStageCacheIncrementalRun(t *testing.T) {
	plain := newTestServer(t, Options{})
	cached := newTestServer(t, Options{StageCache: true})

	h := cached.Handler()
	runBoth := func(body string) {
		t.Helper()
		wp := post(t, plain.Handler(), "/v1/run", body)
		wc := post(t, h, "/v1/run", body)
		if wp.Code != 200 || wc.Code != 200 {
			t.Fatalf("run %s = %d / %d: %s %s", body, wp.Code, wc.Code, wp.Body, wc.Body)
		}
		if !bytes.Equal(wp.Body.Bytes(), wc.Body.Bytes()) {
			t.Fatalf("run %s: stage-cached body differs from uncached", body)
		}
		if ep, ec := wp.Header().Get("ETag"), wc.Header().Get("ETag"); ep == "" || ep != ec {
			t.Fatalf("run %s: ETags differ: %q vs %q", body, ep, ec)
		}
	}

	runBoth(`{"seed": 11}`)
	stagesCold := metricValue(t, h, "rcpt_stagecache_stores_total")
	if hits := metricValue(t, h, "rcpt_stagecache_hits_total"); hits != 0 || stagesCold == 0 {
		t.Fatalf("cold run: hits %v (want 0), stores %v (want > 0)", hits, stagesCold)
	}

	runBoth(`{"seed": 11, "policy": "fcfs"}`)
	hits := metricValue(t, h, "rcpt_stagecache_hits_total")
	misses := metricValue(t, h, "rcpt_stagecache_misses_total") - stagesCold
	if hits != stagesCold-1 || misses != 1 {
		t.Fatalf("policy change: hit %v of %v cached stages, recomputed %v, want %v hits and exactly 1 recompute",
			hits, stagesCold, misses, stagesCold-1)
	}
}

// TestStageCacheMetricsGated pins the metrics contract: the
// rcpt_stagecache_* families exist exactly when the feature is enabled,
// so a standalone daemon's exposition is unchanged.
func TestStageCacheMetricsGated(t *testing.T) {
	off := get(t, newTestServer(t, Options{}).Handler(), "/metrics").Body.String()
	if strings.Contains(off, "rcpt_stagecache_") {
		t.Fatal("stage-cache metric families registered while the feature is disabled")
	}
	on := get(t, newTestServer(t, Options{StageCache: true}).Handler(), "/metrics").Body.String()
	for _, name := range []string{
		"rcpt_stagecache_hits_total", "rcpt_stagecache_misses_total",
		"rcpt_stagecache_stores_total", "rcpt_stagecache_corrupt_total",
		"rcpt_stagecache_entries", "rcpt_stagecache_bytes",
	} {
		if !strings.Contains(on, name) {
			t.Fatalf("metric %s missing with the stage cache enabled", name)
		}
	}
}

// ringOfOne is a server in cluster mode whose ring is itself alone:
// every stealable stage is offered to the cluster's dispatcher, which
// has no peer to pick, and the peer endpoints are live.
func ringOfOne(t *testing.T, opts Options) *Server {
	t.Helper()
	self := "http://127.0.0.1:9"
	opts.Cluster = &cluster.Options{Self: self, Peers: []string{self}, Secret: "s3cret"}
	s := newTestServer(t, opts)
	t.Cleanup(func() { _ = s.cluster.Close(context.Background()) })
	return s
}

// stealFrom posts one stage steal to h the way a thief does and
// returns the 200 response.
func stealFrom(t *testing.T, h http.Handler, cfg core.Config, stage string) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(cluster.StageRequest{Config: cfg, Stage: stage})
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/peer/stage", bytes.NewReader(body))
	req.Header.Set(cluster.SecretHeader, "s3cret")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("steal %s = %d: %s", stage, w.Code, w.Body)
	}
	return w
}

// TestPeerStageServedFromCache pins the peer-serving seam: after a
// pipeline run has populated the stage cache, /v1/peer/stage answers a
// steal with the exact bytes the run stored — one cache hit, nothing
// re-stored — under their SHA-256 as the ETag, and a replica without a
// stage cache computes the identical payload.
func TestPeerStageServedFromCache(t *testing.T) {
	s := ringOfOne(t, Options{StageCache: true})
	h := s.Handler()
	if w := post(t, h, "/v1/run", `{"seed": 31}`); w.Code != 200 {
		t.Fatalf("run = %d: %s", w.Code, w.Body)
	}

	cfg := s.baseCfg
	cfg.Seed = 31
	hitsBefore := metricValue(t, h, "rcpt_stagecache_hits_total")
	storesBefore := metricValue(t, h, "rcpt_stagecache_stores_total")
	w := stealFrom(t, h, cfg, "trace-2011")
	if hits := metricValue(t, h, "rcpt_stagecache_hits_total"); hits != hitsBefore+1 {
		t.Fatalf("stage steal did not hit the cache (hits %v -> %v)", hitsBefore, hits)
	}
	if stores := metricValue(t, h, "rcpt_stagecache_stores_total"); stores != storesBefore {
		t.Fatalf("a steal served from cache stored again (stores %v -> %v)", storesBefore, stores)
	}
	sum := sha256.Sum256(w.Body.Bytes())
	if etag := w.Header().Get("ETag"); etag != `"`+hex.EncodeToString(sum[:])+`"` {
		t.Fatalf("steal ETag %q is not the payload's SHA-256", etag)
	}
	if _, err := core.DecodeTraceStagePayload(w.Body.Bytes()); err != nil {
		t.Fatalf("steal payload does not decode: %v", err)
	}

	plain := stealFrom(t, ringOfOne(t, Options{}).Handler(), cfg, "trace-2011")
	if !bytes.Equal(plain.Body.Bytes(), w.Body.Bytes()) || plain.Header().Get("ETag") != w.Header().Get("ETag") {
		t.Fatal("cache-served steal differs from a computed one")
	}
}

// TestRingStoresEachStageOnce: a run on a one-replica ring, where every
// trace stage goes through the steal hook and is computed locally, must
// look up and store each stage exactly as often as a standalone
// server's run does.
func TestRingStoresEachStageOnce(t *testing.T) {
	ring := ringOfOne(t, Options{StageCache: true}).Handler()
	alone := newTestServer(t, Options{StageCache: true}).Handler()
	for _, h := range []http.Handler{ring, alone} {
		if w := post(t, h, "/v1/run", `{"seed": 37}`); w.Code != 200 {
			t.Fatalf("run = %d: %s", w.Code, w.Body)
		}
	}
	for _, name := range []string{"rcpt_stagecache_stores_total", "rcpt_stagecache_misses_total"} {
		if r, a := metricValue(t, ring, name), metricValue(t, alone, name); r != a || a == 0 {
			t.Fatalf("%s: ring replica %v, standalone %v", name, r, a)
		}
	}
}

// TestStageCacheDirWarmStart: a restarted daemon pointing at the same
// -stage-cache-dir verifies the persisted stage entries at boot and
// serves its first run almost entirely from them.
func TestStageCacheDirWarmStart(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Options{StageCacheDir: dir})
	if w := post(t, s1.Handler(), "/v1/run", `{"seed": 23}`); w.Code != 200 {
		t.Fatalf("run = %d: %s", w.Code, w.Body)
	}
	etag1 := post(t, s1.Handler(), "/v1/run", `{"seed": 23}`).Header().Get("ETag")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Options{StageCacheDir: dir})
	h := s2.Handler()
	if restored := metricValue(t, h, `rcpt_stagecache_warmstart_total{outcome="restored"}`); restored == 0 {
		t.Fatal("restart restored no persisted stage entries")
	}
	if corrupt := metricValue(t, h, `rcpt_stagecache_warmstart_total{outcome="corrupt"}`); corrupt != 0 {
		t.Fatalf("restart found %v corrupt stage entries", corrupt)
	}
	w := post(t, h, "/v1/run", `{"seed": 23}`)
	if w.Code != 200 {
		t.Fatalf("post-restart run = %d: %s", w.Code, w.Body)
	}
	if etag2 := w.Header().Get("ETag"); etag2 != etag1 {
		t.Fatalf("post-restart ETag %q differs from pre-restart %q", etag2, etag1)
	}
	if hits := metricValue(t, h, "rcpt_stagecache_hits_total"); hits == 0 {
		t.Fatal("post-restart run hit no persisted stages")
	}
	if misses := metricValue(t, h, "rcpt_stagecache_misses_total"); misses != 0 {
		t.Fatalf("post-restart run missed %v stages, want 0", misses)
	}
}

// TestWhatIfReRendersOnlyWhatChanged: the render cache is keyed by
// what each body is built from, so once every artifact of run A is
// rendered, run B — A with n2011 raised — re-renders only the nine
// experiments that read the 2011 cohort or its size and serves the
// other twenty from the cache. Every body B gets, hit or not, is
// byte-identical to an in-process render of B.
func TestWhatIfReRendersOnlyWhatChanged(t *testing.T) {
	s := newTestServer(t, Options{StageCache: true})
	h := s.Handler()
	runA := `{"seed": 7, "panelN": 20, "traceYears": [2011, 2012, 2013, 2014]}`
	runB := `{"seed": 7, "panelN": 20, "traceYears": [2011, 2012, 2013, 2014], "n2011": 31}`
	post := func(body string) string {
		w := post(t, h, "/v1/run", body)
		if w.Code != 200 {
			t.Fatalf("run %s = %d: %s", body, w.Code, w.Body)
		}
		var sum struct{ Fingerprint string }
		if err := json.Unmarshal(w.Body.Bytes(), &sum); err != nil {
			t.Fatal(err)
		}
		return sum.Fingerprint
	}
	path := func(e core.Experiment, fp string) string {
		if e.Kind == core.KindFigure {
			return "/v1/figures/" + e.ID + "?run=" + fp
		}
		return "/v1/tables/" + e.ID + "?format=json&run=" + fp
	}
	fpA := post(runA)
	for _, e := range core.Registry() {
		if w := get(t, h, path(e, fpA)); w.Code != 200 {
			t.Fatalf("%s of run A = %d: %s", e.ID, w.Code, w.Body)
		}
	}

	fpB := post(runB)
	runBItem, ok := s.runner.lookup(fpB)
	if !ok {
		t.Fatal("run B not retained")
	}
	var reRendered []string
	for _, e := range core.Registry() {
		hits := metricValue(t, h, "rcpt_cache_hits_total")
		w := get(t, h, path(e, fpB))
		if w.Code != 200 {
			t.Fatalf("%s of run B = %d: %s", e.ID, w.Code, w.Body)
		}
		if metricValue(t, h, "rcpt_cache_hits_total") == hits {
			reRendered = append(reRendered, e.ID)
		}
		format := "json"
		if e.Kind == core.KindFigure {
			format = "svg"
		}
		want, err := renderArtifact(runBItem.arts, e.ID, format)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.Body.Bytes(), want) {
			t.Errorf("%s of run B differs from its own render", e.ID)
		}
	}
	if got, want := strings.Join(reRendered, " "), "T1 T2 T3 T4 T7 T9 T12 T13 T16"; got != want {
		t.Errorf("run B re-rendered %s, want %s", got, want)
	}
}
