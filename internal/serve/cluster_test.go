package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
)

// replica is one in-process rcpt-serve instance on a real listener.
type replica struct {
	srv *Server
	url string
	l   net.Listener
}

// startReplicas boots n replicas sharing one membership set on
// loopback listeners. Ports are reserved by net.Listen before any
// Server is built, so every replica's Options can name the full ring.
func startReplicas(t *testing.T, n int, secret string) []*replica {
	return startReplicasWith(t, n, secret, nil)
}

// startReplicasWith is startReplicas with a per-replica Options hook
// (chaos specs, suspect timeouts) applied before each Server is built.
func startReplicasWith(t *testing.T, n int, secret string, mutate func(i int, o *Options)) []*replica {
	t.Helper()
	listeners := make([]net.Listener, n)
	members := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		listeners[i] = l
		members[i] = "http://" + l.Addr().String()
	}
	reps := make([]*replica, n)
	for i := range reps {
		opts := Options{
			Cluster: &cluster.Options{
				Self:          members[i],
				Peers:         members,
				Secret:        secret,
				ProbeInterval: 50 * time.Millisecond,
				ProbeTimeout:  500 * time.Millisecond,
			},
		}
		if mutate != nil {
			mutate(i, &opts)
		}
		s := newTestServer(t, opts)
		reps[i] = &replica{srv: s, url: members[i], l: listeners[i]}
		go func(r *replica) { _ = r.srv.Serve(r.l) }(reps[i])
	}
	t.Cleanup(func() {
		for _, r := range reps {
			r.srv.httpSrv.Close()
			_ = r.srv.cluster.Close(context.Background())
		}
	})
	// Wait for every replica to see the full ring healthy, so the first
	// request's routing decisions are deterministic.
	deadline := time.Now().Add(5 * time.Second)
	for _, r := range reps {
		for {
			if h, total := r.srv.cluster.Quorum(); h == total {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("replicas never converged on a healthy ring")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return reps
}

// httpGet fetches path from a replica over real HTTP.
func httpGet(t *testing.T, base, path string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s%s: %v", base, path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s%s: %v", base, path, err)
	}
	return resp.StatusCode, resp.Header, body
}

// kill simulates a replica dying without any drain: connections are
// torn down mid-flight and its prober stops. The cluster closes under
// an already-cancelled context, so no graceful leave goes out and the
// survivors learn of the death only by probing.
func (r *replica) kill() {
	r.srv.httpSrv.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = r.srv.cluster.Close(ctx)
}

// runsOn returns how many pipeline executions a replica performed.
func runsOn(r *replica) uint64 { return r.srv.runner.runsTotal.Value() }

// TestClusterThreeReplicasOneCompute is the protocol's headline
// property on a live 3-replica ring: a render hitting every replica
// produces byte-identical responses (same ETag everywhere), and
// exactly one replica — the fingerprint's ring owner — executed the
// pipeline. The other two were peer cache fills.
func TestClusterThreeReplicasOneCompute(t *testing.T) {
	reps := startReplicas(t, 3, "s3cret")
	type res struct {
		code int
		etag string
		body string
	}
	results := make([]res, len(reps))
	var wg sync.WaitGroup
	for i, r := range reps {
		wg.Add(1)
		go func(i int, r *replica) {
			defer wg.Done()
			code, hdr, body := httpGet(t, r.url, "/v1/tables/T1")
			results[i] = res{code: code, etag: hdr.Get("ETag"), body: string(body)}
		}(i, r)
	}
	wg.Wait()
	for i, got := range results {
		if got.code != http.StatusOK {
			t.Fatalf("replica %d: status %d: %s", i, got.code, got.body)
		}
		if got.etag == "" || got.etag != results[0].etag {
			t.Fatalf("replica %d: etag %q != replica 0 etag %q", i, got.etag, results[0].etag)
		}
		if got.body != results[0].body {
			t.Fatalf("replica %d: body differs from replica 0", i)
		}
	}
	var total uint64
	var ownerRuns uint64
	owner := reps[0].srv.cluster.Sequence(reps[0].srv.baseFP)[0]
	for _, r := range reps {
		n := runsOn(r)
		total += n
		if r.url == owner {
			ownerRuns = n
		}
	}
	if total != 1 {
		t.Fatalf("pipeline ran %d times across the ring, want exactly 1", total)
	}
	if ownerRuns != 1 {
		t.Fatalf("the one run did not land on the ring owner %s", owner)
	}
}

// TestClusterOwnerDeathByteIdentical kills the fingerprint's owner
// before any request and waits for both survivors' probers to demote
// it, then hits both survivors: both name the same next member as the
// authority, exactly one executes, and both responses are
// byte-identical — faults cost latency, never bytes.
func TestClusterOwnerDeathByteIdentical(t *testing.T) {
	reps := startReplicas(t, 3, "")
	owner := reps[0].srv.cluster.Sequence(reps[0].srv.baseFP)[0]
	var dead *replica
	var survivors []*replica
	for _, r := range reps {
		if r.url == owner {
			dead = r
		} else {
			survivors = append(survivors, r)
		}
	}
	dead.kill()
	// Wait until both survivors' probers have marked the owner down, so
	// neither sends it a fill at all.
	deadline := time.Now().Add(5 * time.Second)
	for _, r := range survivors {
		for r.srv.cluster.Authority(r.srv.baseFP) == owner {
			if time.Now().After(deadline) {
				t.Fatal("survivors never demoted the dead owner")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	type res struct {
		code int
		etag string
		body string
	}
	results := make([]res, len(survivors))
	var wg sync.WaitGroup
	for i, r := range survivors {
		wg.Add(1)
		go func(i int, r *replica) {
			defer wg.Done()
			code, hdr, body := httpGet(t, r.url, "/v1/tables/T1?format=csv")
			results[i] = res{code: code, etag: hdr.Get("ETag"), body: string(body)}
		}(i, r)
	}
	wg.Wait()
	for i, got := range results {
		if got.code != http.StatusOK {
			t.Fatalf("survivor %d: status %d: %s", i, got.code, got.body)
		}
	}
	if results[0].etag != results[1].etag || results[0].body != results[1].body {
		t.Fatalf("survivors disagree: etags %q vs %q", results[0].etag, results[1].etag)
	}
	if total := runsOn(survivors[0]) + runsOn(survivors[1]); total != 1 {
		t.Fatalf("survivors ran the pipeline %d times, want exactly 1", total)
	}
	// Later, sequential requests for fresh artifacts must not recompute
	// anywhere either: the takeover authority holds the run, and the
	// other survivor fills from it.
	bodies := make([]string, len(survivors))
	for i, r := range survivors {
		code, _, body := httpGet(t, r.url, "/v1/figures/F1")
		if code != http.StatusOK {
			t.Fatalf("survivor %d figure: status %d: %s", i, code, body)
		}
		bodies[i] = string(body)
	}
	if bodies[0] != bodies[1] {
		t.Fatal("sequential survivor renders diverged")
	}
	if total := runsOn(survivors[0]) + runsOn(survivors[1]); total != 1 {
		t.Fatalf("sequential renders grew total runs to %d, want still 1", total)
	}
}

// TestClusterUnnoticedOwnerDeathOneCompute: the owner crashes before
// any prober notices — probing runs one round a minute — so both
// survivors still name it as the authority. Their fills to it fail,
// both walk the takeover order to the same first live member, and its
// singleflight runs the pipeline once, whether both survivors render
// at once or the one further down the order renders first.
func TestClusterUnnoticedOwnerDeathOneCompute(t *testing.T) {
	for _, concurrent := range []bool{true, false} {
		name := "walker first"
		if concurrent {
			name = "concurrent"
		}
		t.Run(name, func(t *testing.T) {
			reps := startReplicasWith(t, 3, "", func(_ int, o *Options) {
				o.Cluster.ProbeInterval = time.Minute
			})
			fp := reps[0].srv.baseFP
			byURL := map[string]*replica{}
			for _, r := range reps {
				byURL[r.url] = r
			}
			order := reps[0].srv.cluster.Sequence(fp)
			owner, survivors := byURL[order[0]], []*replica{byURL[order[1]], byURL[order[2]]}
			owner.kill()
			for _, r := range survivors {
				if auth := r.srv.cluster.Authority(fp); auth != owner.url {
					t.Fatalf("%s names %s as authority, want the dead owner %s", r.url, auth, owner.url)
				}
			}
			codes := make([]int, len(survivors))
			etags := make([]string, len(survivors))
			render := func(i int) {
				resp, err := http.Get(survivors[i].url + "/v1/tables/T1")
				if err != nil {
					return
				}
				defer resp.Body.Close()
				_, _ = io.Copy(io.Discard, resp.Body)
				codes[i], etags[i] = resp.StatusCode, resp.Header.Get("ETag")
			}
			if concurrent {
				var wg sync.WaitGroup
				for i := range survivors {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						render(i)
					}(i)
				}
				wg.Wait()
			} else {
				render(1)
				render(0)
			}
			for i, code := range codes {
				if code != http.StatusOK {
					t.Fatalf("survivor %s: status %d", survivors[i].url, code)
				}
			}
			if etags[0] == "" || etags[0] != etags[1] {
				t.Fatalf("survivors disagree: etags %q vs %q", etags[0], etags[1])
			}
			if first, second := runsOn(survivors[0]), runsOn(survivors[1]); first+second != 1 {
				t.Fatalf("survivors ran the pipeline %d and %d times, want exactly 1 in all", first, second)
			}
		})
	}
}

// TestPeerAuth: with a secret configured, peer endpoints reject
// requests without it and accept requests carrying it.
func TestPeerAuth(t *testing.T) {
	reps := startReplicas(t, 2, "hunter2")
	probe := func(secret string) *http.Response {
		t.Helper()
		raw, err := json.Marshal(cluster.ProbeRequest{From: reps[1].url})
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, reps[0].url+"/v1/peer/probe", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		if secret != "" {
			req.Header.Set(cluster.SecretHeader, secret)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { resp.Body.Close() })
		return resp
	}
	if resp := probe(""); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated peer probe = %d, want 401", resp.StatusCode)
	}
	resp := probe("hunter2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated peer probe = %d, want 200", resp.StatusCode)
	}
	var ack cluster.ProbeRequest
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatalf("decoding ack: %v", err)
	}
	if ack.From != reps[0].url || len(ack.Members) != 2 {
		t.Fatalf("ack = %+v, want two members from %s", ack, reps[0].url)
	}
}

// TestReadyzClusterModes: peer loss degrades /readyz to a detailed 200
// by default (each replica can serve alone), and to a 503 in strict
// quorum mode (drop minority-partition replicas at the balancer).
func TestReadyzClusterModes(t *testing.T) {
	for _, strict := range []bool{false, true} {
		t.Run(fmt.Sprintf("strict=%v", strict), func(t *testing.T) {
			// Self plus one dead peer: quorum 1/2 once probed.
			s := newTestServer(t, Options{
				ReadyzQuorumStrict: strict,
				Cluster: &cluster.Options{
					Self:          "http://127.0.0.1:9",
					Peers:         []string{"http://127.0.0.1:9", "http://127.0.0.1:10"},
					ProbeInterval: 20 * time.Millisecond,
					ProbeTimeout:  200 * time.Millisecond,
				},
			})
			defer func() { _ = s.cluster.Close(context.Background()) }()
			deadline := time.Now().Add(5 * time.Second)
			for {
				if h, _ := s.cluster.Quorum(); h == 1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("dead peer never probed down")
				}
				time.Sleep(10 * time.Millisecond)
			}
			w := get(t, s.Handler(), "/readyz")
			want := http.StatusOK
			if strict {
				want = http.StatusServiceUnavailable
			}
			if w.Code != want {
				t.Fatalf("readyz = %d, want %d: %s", w.Code, want, w.Body)
			}
			var body readyzBody
			if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
				t.Fatalf("readyz body: %v", err)
			}
			if !body.Degraded || body.QuorumHealthy != 1 || body.QuorumTotal != 2 {
				t.Fatalf("readyz detail = %+v", body)
			}
			if body.Ready == strict {
				t.Fatalf("ready = %v with strict=%v", body.Ready, strict)
			}
		})
	}
}

// TestPeerFillValidatesBeforeComputing: a peer fill for an unknown
// artifact, in a format the artifact has no renderer for, or of another
// replica's base run is refused before the cache lookup, so it never
// starts a pipeline run.
func TestPeerFillValidatesBeforeComputing(t *testing.T) {
	var runs atomic.Int64
	reps := startReplicasWith(t, 1, "", func(_ int, o *Options) {
		o.RunFunc = func(context.Context, core.Config) (*core.Artifacts, error) {
			runs.Add(1)
			return nil, errors.New("stub pipeline")
		}
	})
	base := tinyConfig()
	other := tinyConfig()
	other.Seed++
	cases := []struct {
		name     string
		cfg      core.Config
		artifact string
		format   string
		want     int
	}{
		{"unknown artifact", base, "T99", "json", http.StatusNotFound},
		{"table as svg", base, "T5", "svg", http.StatusBadRequest},
		{"figure as json", base, "F1", "json", http.StatusBadRequest},
		{"another base run", other, "T5", "json", http.StatusNotFound},
	}
	for _, c := range cases {
		path := fmt.Sprintf("/v1/peer/artifact/%s/%s?format=%s", c.cfg.Fingerprint(), c.artifact, c.format)
		code, _, body := httpGet(t, reps[0].url, path)
		if code != c.want {
			t.Errorf("%s: status %d (%s), want %d", c.name, code, body, c.want)
		}
		if n := runs.Swap(0); n != 0 {
			t.Errorf("%s: the fill started %d pipeline runs, want none", c.name, n)
		}
	}
}

// TestColdAuthorityBurstKeepsPeersAdmitted: concurrent first renders on
// the base run's cold authority each hint-probe both peers, which hold
// no run and answer 404. Those misses are answers, not failures, so
// after the burst the authority still admits fills and steals to both
// peers. Probing runs one round a minute, so no probe success closes a
// breaker the burst opened.
func TestColdAuthorityBurstKeepsPeersAdmitted(t *testing.T) {
	reps := startReplicasWith(t, 3, "", func(_ int, o *Options) {
		o.Cluster.ProbeInterval = time.Minute
	})
	var auth *replica
	for _, r := range reps {
		if r.url == r.srv.cluster.Authority(r.srv.baseFP) {
			auth = r
		}
	}
	if auth == nil {
		t.Fatal("no replica is the base run's authority")
	}
	var wg sync.WaitGroup
	codes := make([]int, 4)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/v1/tables/T%d", auth.url, i+1))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			_, _ = io.Copy(io.Discard, resp.Body)
			codes[i] = resp.StatusCode
		}(i)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Fatalf("T%d on the authority: status %d", i+1, code)
		}
	}
	for _, ph := range auth.srv.cluster.PeerHealth() {
		if ph.Breaker != "closed" {
			t.Errorf("peer %s: breaker %s after the burst (last error %q), want closed", ph.Peer, ph.Breaker, ph.LastErr)
		}
	}
}
