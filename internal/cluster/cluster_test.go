package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestNewValidation(t *testing.T) {
	reg := obs.NewRegistry()
	cases := []Options{
		{}, // no self
		{Self: "http://a", Peers: []string{"http://b", "http://c"}}, // self not a member
		{Self: "http://a", Peers: []string{"http://a", "http://a"}}, // duplicate
		{Self: "http://a", Peers: []string{"http://a", "ftp://b"}},  // not http
		{Self: "http://a", Peers: []string{"http://a", ""}},         // empty
		{Self: "http://a", Join: []string{"ftp://b"}},               // bad join seed
	}
	for i, o := range cases {
		if _, err := New(o, reg); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, o)
		}
	}
	c, err := New(Options{Self: "http://a/", Peers: []string{"http://a", "http://b"}}, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if c.Self() != "http://a" {
		t.Fatalf("self not normalized: %q", c.Self())
	}
	// A single-element peer list is a valid bootstrap seed awaiting joins.
	seed, err := New(Options{Self: "http://a", Peers: []string{"http://a"}}, obs.NewRegistry())
	if err != nil {
		t.Fatalf("single-member seed rejected: %v", err)
	}
	if got := seed.Members(); len(got) != 1 || got[0] != "http://a" {
		t.Fatalf("seed members = %v, want [http://a]", got)
	}
	// Join mode: membership starts as a ring of one, seeds pending.
	j, err := New(Options{Self: "http://c", Join: []string{"http://a", "http://c"}}, obs.NewRegistry())
	if err != nil {
		t.Fatalf("join mode rejected: %v", err)
	}
	if got := j.Members(); len(got) != 1 || got[0] != "http://c" {
		t.Fatalf("joiner members = %v, want [http://c]", got)
	}
}

// keyOwnedBy finds a key whose ring owner is the wanted peer.
func keyOwnedBy(t *testing.T, c *Cluster, peer string) string {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		k := keyset(i + 1)[i]
		if c.Sequence(k)[0] == peer {
			return k
		}
	}
	t.Fatalf("no key owned by %s in 10k tries", peer)
	return ""
}

// TestProberFlipsHealth: the gossip prober marks a peer suspect when
// its probe endpoint fails and alive again when it recovers, feeding
// the authority walk and the steal target filter. With only two
// members there are no relays, so a failed direct probe suspects
// immediately.
func TestProberFlipsHealth(t *testing.T) {
	var healthy atomic.Bool
	healthy.Store(true)
	mux := http.NewServeMux()
	var peerURL string
	mux.HandleFunc("POST /v1/peer/probe", func(w http.ResponseWriter, r *http.Request) {
		if !healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		_ = json.NewEncoder(w).Encode(ProbeRequest{From: peerURL, Incarnation: 1})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	peerURL = srv.URL

	self := "http://127.0.0.1:1"
	c, err := New(Options{
		Self:          self,
		Peers:         []string{self, srv.URL},
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
	}, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer func() { _ = c.Close(context.Background()) }()

	waitFor := func(want bool, what string) {
		t.Helper()
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			if hs := c.PeerHealth(); len(hs) == 1 && hs[0].Healthy == want {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("peer never became %s", what)
	}
	waitFor(true, "healthy")
	if h, total := c.Quorum(); h != 2 || total != 2 {
		t.Fatalf("quorum = %d/%d, want 2/2", h, total)
	}
	healthy.Store(false)
	waitFor(false, "suspect")
	if st, _ := c.members.StateOf(normalizePeer(srv.URL)); st != StateSuspect {
		t.Fatalf("peer state = %v, want suspect", st)
	}
	if h, total := c.Quorum(); h != 1 || total != 2 {
		t.Fatalf("quorum after peer suspect = %d/%d, want 1/2", h, total)
	}
	// A suspect keeps its ring position (no key remapping on a blip)
	// but must not be the authority for its keys.
	key := keyOwnedBy(t, c, normalizePeer(srv.URL))
	if order := c.Takeover(key); len(order) != 1 || order[0] != c.Self() {
		t.Fatalf("takeover order for suspect owner's key = %v, want just self", order)
	}
	if auth := c.Authority(key); auth != c.Self() {
		t.Fatalf("authority for suspect owner's key = %q, want self", auth)
	}
	healthy.Store(true)
	waitFor(true, "healthy again")
	if st, _ := c.members.StateOf(normalizePeer(srv.URL)); st != StateAlive {
		t.Fatalf("peer state after recovery = %v, want alive", st)
	}
}

// TestRevivedPeerBreakerCloses: probes feed a peer's breaker, so a
// partition opens it. When membership takes the peer back — here a
// probe from it after it was swept dead — the breaker closes with it,
// so fills and steals reach the peer at once instead of after the
// cooldown.
func TestRevivedPeerBreakerCloses(t *testing.T) {
	c := twoMemberRing(t)
	p := c.peerStateFor("http://b")
	for i := 0; i < peerBreakerThreshold; i++ {
		c.reportFailure(p, errors.New("probe timed out"))
	}
	if p.allow(c.now()) {
		t.Fatal("breaker admits requests after the failure threshold")
	}
	c.members.MarkSuspect("http://b")
	c.members.SweepSuspects(0)
	c.membershipChanged()
	if c.healthyPeer("http://b") {
		t.Fatal("peer still alive after the sweep")
	}
	c.HandleProbe(ProbeRequest{From: "http://b"})
	if !c.healthyPeer("http://b") {
		t.Fatal("a probe from the peer did not revive it")
	}
	if !p.allow(c.now()) {
		t.Fatal("revived peer's breaker still refuses requests")
	}
}

// TestJoinThroughProbe: a replica started with -join probes its seed,
// and the seed's ack admits it. The fake seed serves nothing but
// POST /v1/peer/probe, so a join that needed any other verb would never
// complete.
func TestJoinThroughProbe(t *testing.T) {
	mux := http.NewServeMux()
	var seedURL string
	mux.HandleFunc("POST /v1/peer/probe", func(w http.ResponseWriter, r *http.Request) {
		_ = json.NewEncoder(w).Encode(ProbeRequest{From: seedURL, Incarnation: 1})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	seedURL = srv.URL

	c, err := New(Options{
		Self:          "http://127.0.0.1:1",
		Join:          []string{srv.URL},
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
	}, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer func() { _ = c.Close(context.Background()) }()
	deadline := time.Now().Add(3 * time.Second)
	for !slices.Contains(c.Members(), normalizePeer(srv.URL)) {
		if time.Now().After(deadline) {
			t.Fatalf("joiner never admitted its seed: members %v", c.Members())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestHintMissKeepsBreakerClosed: a peer that answers a fill with 404
// (it holds no run for the fingerprint) has answered coherently, so
// misses past the failure threshold leave its breaker closed and the
// next fill still reaches it.
func TestHintMissKeepsBreakerClosed(t *testing.T) {
	var fills atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/peer/artifact/{fp}/{artifact}", func(w http.ResponseWriter, r *http.Request) {
		fills.Add(1)
		http.Error(w, "no retained run for this fingerprint", http.StatusNotFound)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()

	self := "http://127.0.0.1:1"
	c, err := New(Options{Self: self, Peers: []string{self, srv.URL}}, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= peerBreakerThreshold; i++ {
		_, err := c.FetchArtifact(context.Background(), srv.URL, "fp", "T1", "json", FillHint)
		var pe *PeerError
		if !errors.As(err, &pe) || pe.Status != http.StatusNotFound {
			t.Fatalf("fill %d: err = %v, want the peer's 404", i+1, err)
		}
	}
	if n := fills.Load(); n != peerBreakerThreshold+1 {
		t.Fatalf("peer saw %d fills, want %d: its breaker refused the rest", n, peerBreakerThreshold+1)
	}
}
