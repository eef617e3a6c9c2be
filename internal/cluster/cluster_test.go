package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
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

// leasePeer is a fake authority: /healthz plus a lease endpoint backed
// by a real LeaseTable, the same wiring the serve handler uses.
func leasePeer(t *testing.T, clk *fakeClock) *httptest.Server {
	t.Helper()
	lt := NewLeaseTable(10*time.Second, clk.Now)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /v1/peer/lease", func(w http.ResponseWriter, r *http.Request) {
		var lr LeaseRequest
		if err := json.NewDecoder(r.Body).Decode(&lr); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if lr.Release {
			lt.Release(lr.Key, lr.Holder)
			if err := json.NewEncoder(w).Encode(LeaseResponse{Holder: lr.Holder}); err != nil {
				return
			}
			return
		}
		g, holder, ttl := lt.Acquire(lr.Key, lr.Holder)
		if err := json.NewEncoder(w).Encode(LeaseResponse{Granted: g, Holder: holder, TTLMs: ttl.Milliseconds()}); err != nil {
			return
		}
	})
	return httptest.NewServer(mux)
}

// keyOwnedBy finds a key whose ring owner is the wanted peer.
func keyOwnedBy(t *testing.T, c *Cluster, peer string) string {
	t.Helper()
	for i := 0; i < 10_000; i++ {
		k := keyset(i + 1)[i]
		if c.Owner(k) == peer {
			return k
		}
	}
	t.Fatalf("no key owned by %s in 10k tries", peer)
	return ""
}

// TestAcquireLeaseRemoteAuthority: when the key's owner is a live
// peer, the lease round-trips through its endpoint — one grant, then
// denial naming the first holder.
func TestAcquireLeaseRemoteAuthority(t *testing.T) {
	clk := newFakeClock()
	srv := leasePeer(t, clk)
	defer srv.Close()
	// One membership, two replicas' views of it: a and b are distinct
	// selves in the same three-member ring, so they agree on who owns
	// every key.
	members := []string{"http://127.0.0.1:1", "http://127.0.0.1:2", srv.URL}
	a, err := New(Options{Self: members[0], Peers: members}, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Options{Self: members[1], Peers: members}, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	key := keyOwnedBy(t, a, normalizePeer(srv.URL))
	g, holder, err := a.AcquireLease(context.Background(), key)
	if err != nil || !g {
		t.Fatalf("first acquire: granted=%v err=%v", g, err)
	}
	if holder != a.Self() {
		t.Fatalf("holder = %q, want %q", holder, a.Self())
	}
	g, holder, err = b.AcquireLease(context.Background(), key)
	if err != nil || g {
		t.Fatalf("second acquire: granted=%v err=%v", g, err)
	}
	if holder != a.Self() {
		t.Fatalf("denial names holder %q, want %q", holder, a.Self())
	}
	// Release, then the second replica wins.
	a.ReleaseLease(context.Background(), key)
	if g, _, _ := b.AcquireLease(context.Background(), key); !g {
		t.Fatal("acquire after release denied")
	}
}

// TestAcquireLeaseOwnerDeadTakeover: with the owner unreachable, the
// walk falls through to the next candidate in the ring sequence —
// here self — and the takeover is granted locally and counted.
func TestAcquireLeaseOwnerDeadTakeover(t *testing.T) {
	clk := newFakeClock()
	srv := leasePeer(t, clk)
	url := srv.URL
	srv.Close()
	c := testCluster(t, url)
	key := keyOwnedBy(t, c, normalizePeer(url))
	g, holder, err := c.AcquireLease(context.Background(), key)
	if err != nil || !g {
		t.Fatalf("takeover acquire: granted=%v err=%v", g, err)
	}
	if holder != c.Self() {
		t.Fatalf("holder = %q, want self", holder)
	}
	if v := c.takeovers.Value(); v != 1 {
		t.Fatalf("takeover counter = %d, want 1", v)
	}
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
		_ = json.NewEncoder(w).Encode(ProbeAck{From: peerURL, Incarnation: 1})
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
	if auth := c.Authority(key); auth != c.Self() {
		t.Fatalf("authority for suspect owner's key = %q, want self", auth)
	}
	healthy.Store(true)
	waitFor(true, "healthy again")
	if st, _ := c.members.StateOf(normalizePeer(srv.URL)); st != StateAlive {
		t.Fatalf("peer state after recovery = %v, want alive", st)
	}
}
