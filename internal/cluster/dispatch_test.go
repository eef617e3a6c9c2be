package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/sched"
	"repro/internal/trace"
)

// tinyCfg is a pipeline configuration small enough for many runs per
// test, with two trace years and two replicas each so the dispatcher
// has four stages to spread.
func tinyCfg() core.Config {
	return core.Config{
		Seed:       7,
		N2011:      20,
		N2024:      24,
		TraceYears: []int{2011, 2012},
		SimYear:    2011,
		Policy:     sched.EASYBackfill,
		TraceScale: 2,
		Workers:    4,
	}
}

// TestStageRequestIgnoresTableKey: a replica from before Config lost
// its Table knobs still sends a Table object in the config of a steal.
// Decoding skips the unknown key, so a mixed-version ring keeps
// stealing.
func TestStageRequestIgnoresTableKey(t *testing.T) {
	want := tinyCfg()
	raw, err := json.Marshal(StageRequest{Config: want, Stage: "trace-2011"})
	if err != nil {
		t.Fatal(err)
	}
	older := bytes.Replace(raw, []byte(`"config":{`),
		[]byte(`"config":{"Table":{"BatchRows":64,"Shards":2,"SpillDir":"spill","Resident":2},`), 1)
	if bytes.Equal(older, raw) {
		t.Fatal("no config object to splice the Table key into")
	}
	var got StageRequest
	if err := json.Unmarshal(older, &got); err != nil {
		t.Fatalf("stage request with a Table key: %v", err)
	}
	if !reflect.DeepEqual(got.Config, want) || got.Stage != "trace-2011" {
		t.Fatalf("decoded %+v, want config %+v", got, want)
	}
}

// stagePeer is a correct fake peer: it executes stage requests exactly
// as a live replica's /v1/peer/stage handler does.
func stagePeer(t *testing.T, calls *atomic.Int64) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /v1/peer/stage", func(w http.ResponseWriter, r *http.Request) {
		if calls != nil {
			calls.Add(1)
		}
		payload, ok := computeStage(w, r)
		if !ok {
			return
		}
		w.Header().Set("ETag", etagOf(payload))
		w.Header().Set("Content-Type", "application/octet-stream")
		if _, err := w.Write(payload); err != nil {
			return
		}
	})
	return httptest.NewServer(mux)
}

// computeStage decodes a stage request and runs it, answering the
// error itself when either fails.
func computeStage(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	var sr StageRequest
	if err := json.NewDecoder(r.Body).Decode(&sr); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return nil, false
	}
	payload, err := core.RunStage(r.Context(), sr.Config, sr.Stage, nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return nil, false
	}
	return payload, true
}

func etagOf(payload []byte) string {
	sum := sha256.Sum256(payload)
	return `"` + hex.EncodeToString(sum[:]) + `"`
}

// localStage returns the stage's local body for c.Steal: it computes
// the stage standalone into *out and counts its calls.
func localStage(cfg core.Config, stage string, out *[]byte, calls *atomic.Int64) func() error {
	return func() error {
		calls.Add(1)
		payload, err := core.RunStage(context.Background(), cfg, stage, nil)
		*out = payload
		return err
	}
}

// mustStage is the reference payload of one stage, computed here.
func mustStage(t *testing.T, cfg core.Config, stage string) []byte {
	t.Helper()
	payload, err := core.RunStage(context.Background(), cfg, stage, nil)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// testCluster builds a two-member cluster: an unreachable self plus the
// given peer URL. Probing is not started; never-probed peers count as
// healthy, which is exactly the mid-steal-death scenario.
func testCluster(t *testing.T, peerURL string) *Cluster {
	t.Helper()
	self := "http://127.0.0.1:1"
	c, err := New(Options{
		Self:  self,
		Peers: []string{self, peerURL},
	}, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestTraceStageRemoteMatchesLocal: a stage stolen to a live peer
// returns a payload byte-identical to local compute, and the local body
// never runs. Self is made busy first so the least-loaded choice
// actually picks the peer.
func TestTraceStageRemoteMatchesLocal(t *testing.T) {
	var calls atomic.Int64
	srv := stagePeer(t, &calls)
	defer srv.Close()
	c := testCluster(t, srv.URL)
	c.selfInflight.Add(1) // pretend a local stage is already running
	defer c.selfInflight.Add(-1)

	cfg := tinyCfg()
	var local []byte
	var localCalls atomic.Int64
	got, err := c.Steal(context.Background(), cfg, "trace-2012-rep1", localStage(cfg, "trace-2012-rep1", &local, &localCalls))
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 || localCalls.Load() != 0 {
		t.Fatalf("peer stage calls = %d, local calls = %d, want 1 and 0", calls.Load(), localCalls.Load())
	}
	if want := mustStage(t, cfg, "trace-2012-rep1"); len(want) == 0 || !bytes.Equal(got, want) {
		t.Fatal("stolen payload differs from local compute")
	}
}

// TestTraceStagePeerDeadFallsBack: a peer that is gone entirely
// (connection refused) costs latency, not bytes — the dispatcher runs
// the local body and returns no payload and no error.
func TestTraceStagePeerDeadFallsBack(t *testing.T) {
	srv := stagePeer(t, nil)
	url := srv.URL
	srv.Close() // dead before the first steal
	c := testCluster(t, url)
	c.selfInflight.Add(1)
	defer c.selfInflight.Add(-1)

	cfg := tinyCfg()
	var local []byte
	var localCalls atomic.Int64
	got, err := c.Steal(context.Background(), cfg, "trace-2011", localStage(cfg, "trace-2011", &local, &localCalls))
	if err != nil || got != nil {
		t.Fatalf("Steal = (%d bytes, %v), want the local body to run", len(got), err)
	}
	if localCalls.Load() != 1 || !bytes.Equal(local, mustStage(t, cfg, "trace-2011")) {
		t.Fatal("fallback did not compute the stage locally")
	}
	if v := c.steals.With("fallback").Value(); v != 1 {
		t.Fatalf("fallback metric = %d, want 1", v)
	}
}

// TestTraceStageTruncatedBodyFallsBack: a peer dying mid-response
// leaves a short payload; the ETag check converts that into a local
// recompute, never into wrong rows.
func TestTraceStageTruncatedBodyFallsBack(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/peer/stage", func(w http.ResponseWriter, r *http.Request) {
		payload, ok := computeStage(w, r)
		if !ok {
			return
		}
		w.Header().Set("ETag", etagOf(payload))
		if _, err := w.Write(payload[:len(payload)/2]); err != nil { // die mid-body
			return
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c := testCluster(t, srv.URL)
	c.selfInflight.Add(1)
	defer c.selfInflight.Add(-1)

	cfg := tinyCfg()
	var local []byte
	var localCalls atomic.Int64
	got, err := c.Steal(context.Background(), cfg, "trace-2011-rep1", localStage(cfg, "trace-2011-rep1", &local, &localCalls))
	if err != nil || got != nil || localCalls.Load() != 1 {
		t.Fatalf("Steal = (%d bytes, %v) with %d local calls, want a local recompute", len(got), err, localCalls.Load())
	}
	if !bytes.Equal(local, mustStage(t, cfg, "trace-2011-rep1")) {
		t.Fatal("payload after truncated steal differs from local compute")
	}
}

// TestTraceStageHashMismatchRejected: a whole payload whose ETag
// disagrees with its bytes is damaged goods; the client must fall back
// rather than trust it.
func TestTraceStageHashMismatchRejected(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/peer/stage", func(w http.ResponseWriter, r *http.Request) {
		payload, ok := computeStage(w, r)
		if !ok {
			return
		}
		w.Header().Set("ETag", etagOf([]byte("some other payload"))) // wrong on purpose
		if _, err := w.Write(payload); err != nil {
			return
		}
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	c := testCluster(t, srv.URL)
	c.selfInflight.Add(1)
	defer c.selfInflight.Add(-1)

	cfg := tinyCfg()
	var local []byte
	var localCalls atomic.Int64
	got, err := c.Steal(context.Background(), cfg, "trace-2011", localStage(cfg, "trace-2011", &local, &localCalls))
	if err != nil || got != nil || localCalls.Load() != 1 {
		t.Fatalf("Steal = (%d bytes, %v) with %d local calls, want a silent local fallback", len(got), err, localCalls.Load())
	}
	if v := c.peerFills.With("integrity").Value(); v != 0 {
		t.Fatalf("artifact integrity counter moved on a stage steal: %d", v)
	}
	if v := c.steals.With("fallback").Value(); v != 1 {
		t.Fatalf("fallback metric = %d, want 1", v)
	}
}

// TestRemoteStageErrorSurfaces: when the remote attempt fails AND the
// local recompute fails (here: a stage outside the config's graph),
// the error chain carries the typed RemoteStageError with peer, stage,
// and attempt attribution.
func TestRemoteStageErrorSurfaces(t *testing.T) {
	srv := stagePeer(t, nil)
	defer srv.Close()
	c := testCluster(t, srv.URL)
	c.selfInflight.Add(1)
	defer c.selfInflight.Add(-1)

	var local []byte
	var localCalls atomic.Int64
	_, err := c.Steal(context.Background(), tinyCfg(), "trace-1999", localStage(tinyCfg(), "trace-1999", &local, &localCalls))
	if err == nil {
		t.Fatal("stage for an out-of-graph year succeeded")
	}
	var rse *RemoteStageError
	if !errors.As(err, &rse) {
		t.Fatalf("err = %v, want a *RemoteStageError in the chain", err)
	}
	if rse.Peer != normalizePeer(srv.URL) || rse.Stage != "trace-1999" || rse.Attempt != 1 {
		t.Fatalf("attribution = %+v", rse)
	}
}

// TestRemoteStageErrorThroughGraph: a dispatched stage failure keeps
// its cluster attribution when the parallel graph wraps it — callers
// unwrap *parallel.StageError (which stage, which attempt in the
// graph) and then *cluster.RemoteStageError (which peer) from the same
// chain. This is the attribution path serve's error mapper relies on.
func TestRemoteStageErrorThroughGraph(t *testing.T) {
	srv := stagePeer(t, nil)
	defer srv.Close()
	c := testCluster(t, srv.URL)
	c.selfInflight.Add(1)
	defer c.selfInflight.Add(-1)

	g := parallel.NewGraph()
	var local []byte
	var localCalls atomic.Int64
	g.Add("trace-1999", func() error {
		_, err := c.Steal(context.Background(), tinyCfg(), "trace-1999", localStage(tinyCfg(), "trace-1999", &local, &localCalls))
		return err
	})
	err := g.Run(2)
	if err == nil {
		t.Fatal("graph run with a doomed stage succeeded")
	}
	var se *parallel.StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want a *parallel.StageError in the chain", err)
	}
	if se.Stage != "trace-1999" || se.Panicked {
		t.Fatalf("graph attribution = %+v", se)
	}
	var rse *RemoteStageError
	if !errors.As(err, &rse) {
		t.Fatalf("err = %v, want a *RemoteStageError through the StageError", err)
	}
	if rse.Peer != normalizePeer(srv.URL) {
		t.Fatalf("peer attribution lost through the graph frame: %+v", rse)
	}
}

// TestClusterRunEquivalence is the end-to-end distribution guarantee:
// a full pipeline run whose trace stages are dispatched through the
// cluster (stealing to a live peer under real stage concurrency)
// serializes byte-identically to a plain in-process run.
func TestClusterRunEquivalence(t *testing.T) {
	var calls atomic.Int64
	srv := stagePeer(t, &calls)
	defer srv.Close()
	c := testCluster(t, srv.URL)

	cfg := tinyCfg()
	plain, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	distributed, err := core.RunWithOptions(context.Background(), cfg, core.RunOptions{Steal: c.Steal})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := trace.WriteAccountingTable(&a, plain.Jobs); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteAccountingTable(&b, distributed.Jobs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("distributed run serialized different accounting bytes than the plain run")
	}
	if plain.Sim.Metrics != distributed.Sim.Metrics {
		t.Fatal("distributed run changed simulation metrics")
	}
	total := c.steals.With("local").Value() + c.steals.With("remote").Value() + c.steals.With("fallback").Value()
	if want := uint64(len(cfg.TraceYears) * cfg.TraceScale); total != want {
		t.Fatalf("dispatch decisions = %d, want %d", total, want)
	}
}

// TestClusterRunEquivalenceUnderPeerDeath: same guarantee with the
// peer SIGKILLed (server closed) before the run — every steal fails
// over to local compute and the bytes still match.
func TestClusterRunEquivalenceUnderPeerDeath(t *testing.T) {
	srv := stagePeer(t, nil)
	url := srv.URL
	srv.Close()
	c := testCluster(t, url)

	cfg := tinyCfg()
	plain, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	distributed, err := core.RunWithOptions(context.Background(), cfg, core.RunOptions{Steal: c.Steal})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := trace.WriteAccountingTable(&a, plain.Jobs); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteAccountingTable(&b, distributed.Jobs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("peer death changed artifact bytes (it may only cost latency)")
	}
}
