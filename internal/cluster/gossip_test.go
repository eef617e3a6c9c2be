package cluster

import (
	"context"
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/obs"
)

// twoMemberRing is the ring {http://a, http://b} seen from http://a,
// built but not started: nothing probes, so only what a test hands it
// moves its membership.
func twoMemberRing(t testing.TB) *Cluster {
	t.Helper()
	c, err := New(Options{Self: "http://a", Peers: []string{"http://a", "http://b"}}, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestGossipSkipsMalformedNames: a gossiped member name gets the check
// -peers gets. Probes whose senders and members are not normalized
// http(s) base URLs leave the membership and the ring epoch as they
// were.
func TestGossipSkipsMalformedNames(t *testing.T) {
	c := twoMemberRing(t)
	members, epoch := c.Members(), c.EpochHex()
	c.HandleProbe(ProbeRequest{From: "http://b/", Members: []MemberUpdate{
		{Name: "ftp://x", State: "alive"},
		{Name: " http://b", State: "alive"},
	}})
	c.HandleProbe(ProbeRequest{From: "junk"})
	ack := c.HandleIndirectProbe(t.Context(), IndirectProbeRequest{From: "http://b", Target: "ftp://x"})
	if ack.TargetOK {
		t.Fatal("indirect probe of a malformed target reported it reachable")
	}
	if got := c.Members(); !slices.Equal(got, members) {
		t.Fatalf("members = %v, want %v", got, members)
	}
	if got := c.EpochHex(); got != epoch {
		t.Fatalf("epoch moved %s -> %s", epoch, got)
	}
}

// FuzzPeerBodies decodes arbitrary bytes as each gossip body a replica
// accepts from its peers and applies it: a probe through HandleProbe,
// an indirect probe through HandleIndirectProbe. The indirect probe
// runs under an already-cancelled context, so the relay's own probe of
// the target fails at once and never dials. No input may panic, every
// member name must stay a normalized http(s) base URL, and self must
// stay a member.
func FuzzPeerBodies(f *testing.F) {
	peer := twoMemberRing(f)
	peer.HandleProbe(ProbeRequest{From: "http://c", Incarnation: 2})
	for _, body := range []any{
		peer.probeBody(),
		ProbeRequest{From: "http://c", Incarnation: 2},
		ProbeRequest{From: "http://b/", Members: []MemberUpdate{
			{Name: "ftp://x", State: "alive"},
			{Name: " http://b", State: "alive"},
		}},
		// A rumor that self is dead (refuted) beside a tombstone, a
		// probe from a malformed name, and a relay asked about a third
		// member it hears is suspect.
		ProbeRequest{From: "http://b", Incarnation: 3, Members: []MemberUpdate{
			{Name: "http://a", State: "dead", Incarnation: 4},
			{Name: "http://c", State: "dead", Incarnation: 1},
		}},
		ProbeRequest{From: "junk", Incarnation: 1},
		IndirectProbeRequest{From: "http://b", Incarnation: 1, Target: "http://c", Members: []MemberUpdate{
			{Name: "http://c", State: "suspect", Incarnation: 2},
		}},
	} {
		raw, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	f.Fuzz(func(t *testing.T, body []byte) {
		c := twoMemberRing(t)
		var probe ProbeRequest
		if json.Unmarshal(body, &probe) == nil {
			c.HandleProbe(probe)
		}
		var indirect IndirectProbeRequest
		if json.Unmarshal(body, &indirect) == nil {
			c.HandleIndirectProbe(cancelled, indirect)
		}
		members := c.Members()
		for _, name := range members {
			if !validPeer(name) {
				t.Fatalf("member %q is not a normalized http(s) base URL", name)
			}
		}
		if !slices.Contains(members, c.Self()) {
			t.Fatalf("self %s left the membership %v", c.Self(), members)
		}
	})
}
