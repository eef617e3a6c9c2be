package cluster

import (
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
// -peers gets. A probe whose sender and members are not normalized
// http(s) base URLs, and a join from one, leave the membership and the
// ring epoch as they were.
func TestGossipSkipsMalformedNames(t *testing.T) {
	c := twoMemberRing(t)
	members, epoch := c.Members(), c.EpochHex()
	c.HandleProbe(ProbeRequest{From: "http://b/", Members: []MemberUpdate{
		{Name: "ftp://x", State: "alive"},
		{Name: " http://b", State: "alive"},
	}})
	c.HandleJoin(JoinRequest{From: "junk"})
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

// FuzzPeerBodies decodes arbitrary bytes as each gossip and lease body
// a replica accepts from its peers and applies it: a probe through
// HandleProbe, a join through HandleJoin, a lease through the lease
// table as the lease handler does. No input may panic, every member
// name must stay a normalized http(s) base URL, and self must stay a
// member.
func FuzzPeerBodies(f *testing.F) {
	peer := twoMemberRing(f)
	peer.HandleJoin(JoinRequest{From: "http://c", Incarnation: 2})
	for _, body := range []any{
		peer.probeBody(),
		JoinRequest{From: "http://c", Incarnation: 2},
		LeaseRequest{Key: "0123abcd", Holder: "http://b", Epoch: peer.EpochHex()},
		LeaseRequest{Key: "0123abcd", Holder: "http://b", Release: true},
		ProbeRequest{From: "http://b/", Members: []MemberUpdate{
			{Name: "ftp://x", State: "alive"},
			{Name: " http://b", State: "alive"},
		}},
	} {
		raw, err := json.Marshal(body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		c := twoMemberRing(t)
		var probe ProbeRequest
		if json.Unmarshal(body, &probe) == nil {
			c.HandleProbe(probe)
		}
		var join JoinRequest
		if json.Unmarshal(body, &join) == nil {
			c.HandleJoin(join)
		}
		var lease LeaseRequest
		if json.Unmarshal(body, &lease) == nil && lease.Key != "" && lease.Holder != "" {
			if lease.Release {
				c.Leases().Release(lease.Key, lease.Holder)
			} else {
				c.Leases().Acquire(lease.Key, lease.Holder)
			}
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
