//go:build chaos

package serve

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/fault"
)

// netWeather is deterministic background transport noise: enough to
// build each replica's injector (so partitions can be scripted on it)
// plus dup/delay weather that the peer protocol must shrug off. Drops
// are left out here — the scripted partitions below are the drops, on
// cue instead of by coin flip.
func netWeather() fault.Spec {
	return fault.Spec{
		Seed:         20260808,
		NetDupProb:   0.05,
		NetDelayProb: 0.10,
		NetDelay:     time.Millisecond,
	}
}

// chaosRing boots n replicas with net weather and a suspect timeout
// tuned for the test: short enough that a scripted partition kills
// membership promptly, long enough that probe jitter cannot.
func chaosRing(t *testing.T, n int, secret string, suspectAfter time.Duration) []*replica {
	t.Helper()
	return startReplicasWith(t, n, secret, func(i int, o *Options) {
		o.Chaos = netWeather()
		o.Cluster.SuspectTimeout = suspectAfter
	})
}

// waitFor polls cond until it holds or the deadline passes — membership
// convergence is eventually-consistent by design, so tests wait for the
// state, never for a duration.
func waitFor(t *testing.T, desc string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", desc)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fetchOK renders path on r and returns (etag, body), failing on any
// non-200.
func fetchOK(t *testing.T, r *replica, path string) (string, string) {
	t.Helper()
	code, hdr, body := httpGet(t, r.url, path)
	if code != http.StatusOK {
		t.Fatalf("GET %s on %s: status %d: %s", path, r.url, code, body)
	}
	return hdr.Get("ETag"), string(body)
}

func totalRuns(reps []*replica) uint64 {
	var total uint64
	for _, r := range reps {
		total += runsOn(r)
	}
	return total
}

func sameEpoch(reps []*replica, members int) bool {
	want := reps[0].srv.cluster.EpochHex()
	for _, r := range reps {
		if len(r.srv.cluster.Members()) != members || r.srv.cluster.EpochHex() != want {
			return false
		}
		if h, total := r.srv.cluster.Quorum(); h != total {
			return false
		}
	}
	return true
}

// TestChaosSplitBrainHealsByteIdentical is the partition suite's
// headline: sever one replica from the other two, let both sides
// declare each other dead and hand the ring over under new epochs,
// render the same artifact on both sides — each side computes once,
// independently, and the determinism contract makes the duplicate
// compute byte-identical. Heal the link: the reconnection probe
// re-establishes firsthand contact, both sides converge back to the
// original three-member epoch, and no further compute ever happens.
// The split cost one redundant run — latency and watts, never bytes.
func TestChaosSplitBrainHealsByteIdentical(t *testing.T) {
	reps := chaosRing(t, 3, "", 400*time.Millisecond)
	a, b, c := reps[0], reps[1], reps[2]
	epoch0 := a.srv.cluster.EpochHex()

	groups := [][]string{{a.url}, {b.url, c.url}}
	for _, r := range reps {
		r.srv.netChaos.SetPartition(groups...)
	}
	waitFor(t, "both sides to sweep the other dead", func() bool {
		return len(a.srv.cluster.Members()) == 1 &&
			len(b.srv.cluster.Members()) == 2 &&
			len(c.srv.cluster.Members()) == 2
	})
	if a.srv.cluster.EpochHex() == b.srv.cluster.EpochHex() {
		t.Fatal("split sides agree on a ring epoch — handover never happened")
	}

	// Render on both sides of the split. Each side has a full ring of
	// its own view and must serve — partition tolerance means degraded
	// membership, not refusal.
	etagA, bodyA := fetchOK(t, a, "/v1/tables/T1")
	etagB, bodyB := fetchOK(t, b, "/v1/tables/T1")
	if etagA == "" || etagA != etagB || bodyA != bodyB {
		t.Fatalf("split-brain renders diverged: etags %q vs %q", etagA, etagB)
	}
	if n := totalRuns(reps); n != 2 {
		t.Fatalf("runs across the split = %d, want exactly 2 (one per side)", n)
	}

	for _, r := range reps {
		r.srv.netChaos.Heal()
	}
	waitFor(t, "post-heal convergence to one three-member epoch", func() bool {
		return sameEpoch(reps, 3)
	})
	if got := a.srv.cluster.EpochHex(); got != epoch0 {
		t.Fatalf("healed epoch %s != original %s", got, epoch0)
	}

	// Post-heal renders everywhere: identical bytes, and the merged
	// ring's authority already holds the run, so the total never grows.
	for _, r := range reps {
		etag, body := fetchOK(t, r, "/v1/tables/T1")
		if etag != etagA || body != bodyA {
			t.Fatalf("post-heal render on %s diverged from split-era bytes", r.url)
		}
	}
	if n := totalRuns(reps); n != 2 {
		t.Fatalf("post-heal renders grew runs to %d, want still 2", n)
	}
}

// joinReplica boots one more replica that discovers the ring through
// the join protocol — it knows only the seed's URL, not the membership.
func joinReplica(t *testing.T, seed string, secret string) *replica {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	self := "http://" + l.Addr().String()
	s := newTestServer(t, Options{
		Chaos: netWeather(),
		Cluster: &cluster.Options{
			Self:           self,
			Join:           []string{seed},
			Secret:         secret,
			ProbeInterval:  50 * time.Millisecond,
			ProbeTimeout:   500 * time.Millisecond,
			SuspectTimeout: 400 * time.Millisecond,
		},
	})
	r := &replica{srv: s, url: self, l: l}
	go func() { _ = r.srv.Serve(l) }()
	t.Cleanup(func() { r.kill() })
	return r
}

// TestChaosJoinServesWithoutRecompute: a replica joins a ring that has
// already computed a run. The ring hands some keyspace to the joiner
// under a new epoch; rendering on the joiner must fill from a peer
// that holds the bytes — the hinted fill covers the case where the
// joiner itself became the authority — and never trigger a second
// pipeline compute. The joiner then serves authenticated peer fills
// for the bytes it absorbed, as a full citizen of the ring.
func TestChaosJoinServesWithoutRecompute(t *testing.T) {
	reps := chaosRing(t, 3, "s3cret", 400*time.Millisecond)

	// Traffic before the join: exactly one compute, identical bytes.
	etag0, body0 := fetchOK(t, reps[0], "/v1/tables/T1")
	for _, r := range reps[1:] {
		etag, body := fetchOK(t, r, "/v1/tables/T1")
		if etag != etag0 || body != body0 {
			t.Fatalf("pre-join renders diverged on %s", r.url)
		}
	}
	if n := totalRuns(reps); n != 1 {
		t.Fatalf("pre-join runs = %d, want 1", n)
	}

	d := joinReplica(t, reps[0].url, "s3cret")
	all := append(append([]*replica{}, reps...), d)
	waitFor(t, "four-member convergence after join", func() bool {
		return sameEpoch(all, 4)
	})

	// The joiner serves the artifact with the ring's bytes. Whether the
	// handover made it the fingerprint's authority (hinted fill from
	// the pre-handover authority) or not (plain authority fill), the
	// run count must not move.
	etagD, bodyD := fetchOK(t, d, "/v1/tables/T1")
	if etagD != etag0 || bodyD != body0 {
		t.Fatalf("joiner render diverged: etag %q vs %q", etagD, etag0)
	}
	if n := totalRuns(all); n != 1 {
		t.Fatalf("join caused a recompute: runs = %d, want still 1", n)
	}

	// And the joiner answers authenticated peer fills for those bytes.
	req, err := http.NewRequest(http.MethodGet,
		d.url+"/v1/peer/artifact/"+d.srv.baseFP+"/T1?format=json", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.SecretHeader, "s3cret")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("peer fill from joiner = %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("ETag"); got != etag0 {
		t.Fatalf("joiner peer fill etag %q != ring etag %q", got, etag0)
	}

	// A full citizen also serves stolen trace stages: the dispatcher on
	// any ring member may now pick the joiner as a steal target.
	sr, err := json.Marshal(cluster.StageRequest{
		Config: d.srv.baseCfg, Stage: "trace-2011",
	})
	if err != nil {
		t.Fatal(err)
	}
	sreq, err := http.NewRequest(http.MethodPost,
		d.url+"/v1/peer/stage", bytes.NewReader(sr))
	if err != nil {
		t.Fatal(err)
	}
	sreq.Header.Set(cluster.SecretHeader, "s3cret")
	sresp, err := http.DefaultClient.Do(sreq)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stage steal from joiner = %d, want 200", sresp.StatusCode)
	}
	if sresp.Header.Get("ETag") == "" {
		t.Fatal("stage response from joiner missing its ETag")
	}
}

// TestChaosFlappingPeerNeverRecomputes: a replica that flaps — cut off
// and reconnected repeatedly, each outage shorter than the suspect
// timeout — must cost the ring nothing. Suspicion rises and is refuted
// by firsthand contact before it matures to death, so the epoch never
// moves, no keyspace is handed over, and fresh artifacts from the
// already-computed run render everywhere without a second compute.
func TestChaosFlappingPeerNeverRecomputes(t *testing.T) {
	reps := chaosRing(t, 3, "", 2*time.Second)
	epoch0 := reps[0].srv.cluster.EpochHex()

	fetchOK(t, reps[0], "/v1/tables/T1")
	if n := totalRuns(reps); n != 1 {
		t.Fatalf("initial runs = %d, want 1", n)
	}

	// Flap a replica that is not the run's authority, so the bytes'
	// home is never in doubt — the property under test is that the
	// membership layer ignores sub-timeout noise entirely.
	owner := reps[0].srv.cluster.Sequence(reps[0].srv.baseFP)[0]
	var flapper *replica
	var rest []string
	for _, r := range reps {
		if r.url != owner && flapper == nil {
			flapper = r
		} else {
			rest = append(rest, r.url)
		}
	}
	for cycle := 0; cycle < 4; cycle++ {
		for _, r := range reps {
			r.srv.netChaos.SetPartition([]string{flapper.url}, rest)
		}
		time.Sleep(300 * time.Millisecond) // well under the 2s suspect timeout
		for _, r := range reps {
			r.srv.netChaos.Heal()
		}
		time.Sleep(150 * time.Millisecond) // a few probe rounds to refute
	}
	waitFor(t, "suspicions to clear after flapping", func() bool {
		return sameEpoch(reps, 3)
	})
	for _, r := range reps {
		if got := r.srv.cluster.EpochHex(); got != epoch0 {
			t.Fatalf("flapping moved the epoch on %s: %s != %s", r.url, got, epoch0)
		}
	}

	// A fresh artifact from the same run, requested everywhere: the
	// authority re-renders from its cached run; nobody recomputes.
	_, figure0 := fetchOK(t, reps[0], "/v1/figures/F1")
	for _, r := range reps[1:] {
		if _, body := fetchOK(t, r, "/v1/figures/F1"); body != figure0 {
			t.Fatalf("post-flap figure diverged on %s", r.url)
		}
	}
	if n := totalRuns(reps); n != 1 {
		t.Fatalf("flapping peer caused recompute: runs = %d, want still 1", n)
	}

	// The membership surface is observable: gauges for members,
	// suspects, and epoch, and counters for gossip traffic.
	_, _, metrics := httpGet(t, reps[0].url, "/metrics")
	for _, name := range []string{
		"rcpt_cluster_members",
		"rcpt_cluster_suspects",
		"rcpt_cluster_epoch",
		"rcpt_cluster_gossip_sent_total",
		"rcpt_cluster_gossip_received_total",
	} {
		if !strings.Contains(string(metrics), name) {
			t.Errorf("metric %s missing from /metrics", name)
		}
	}
}
