package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock for membership tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func newTestMemberlist(initial ...string) (*Memberlist, *fakeClock) {
	clk := newFakeClock()
	return newMemberlist("http://self", initial, clk.Now, nil), clk
}

func mustState(t *testing.T, m *Memberlist, name string, want MemberState) {
	t.Helper()
	got, ok := m.StateOf(name)
	if !ok || got != want {
		t.Fatalf("state of %s = %v (known=%v), want %v", name, got, ok, want)
	}
}

// TestMergePrecedence pins the SWIM order: higher incarnation wins, at
// equal incarnation the more pessimistic state wins, and dead/left are
// sticky against gossiped liveness even at higher incarnations.
func TestMergePrecedence(t *testing.T) {
	cases := []struct {
		name            string
		first, second   MemberUpdate
		want            MemberState
		wantIncarnation uint64
	}{
		{"higher incarnation wins",
			MemberUpdate{Name: "http://b", State: "suspect", Incarnation: 1},
			MemberUpdate{Name: "http://b", State: "alive", Incarnation: 2},
			StateAlive, 2},
		{"lower incarnation loses",
			MemberUpdate{Name: "http://b", State: "alive", Incarnation: 3},
			MemberUpdate{Name: "http://b", State: "suspect", Incarnation: 2},
			StateAlive, 3},
		{"equal incarnation: suspect beats alive",
			MemberUpdate{Name: "http://b", State: "alive", Incarnation: 2},
			MemberUpdate{Name: "http://b", State: "suspect", Incarnation: 2},
			StateSuspect, 2},
		{"equal incarnation: alive does not clear suspect",
			MemberUpdate{Name: "http://b", State: "suspect", Incarnation: 2},
			MemberUpdate{Name: "http://b", State: "alive", Incarnation: 2},
			StateSuspect, 2},
		{"equal incarnation: dead beats suspect",
			MemberUpdate{Name: "http://b", State: "suspect", Incarnation: 2},
			MemberUpdate{Name: "http://b", State: "dead", Incarnation: 2},
			StateDead, 2},
		{"gossiped alive cannot un-bury dead, even at higher incarnation",
			MemberUpdate{Name: "http://b", State: "dead", Incarnation: 2},
			MemberUpdate{Name: "http://b", State: "alive", Incarnation: 5},
			StateDead, 2},
		{"gossiped suspect cannot un-bury left",
			MemberUpdate{Name: "http://b", State: "left", Incarnation: 2},
			MemberUpdate{Name: "http://b", State: "suspect", Incarnation: 9},
			StateLeft, 2},
		{"dead at higher incarnation buries alive",
			MemberUpdate{Name: "http://b", State: "alive", Incarnation: 2},
			MemberUpdate{Name: "http://b", State: "dead", Incarnation: 3},
			StateDead, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, _ := newTestMemberlist()
			m.Merge([]MemberUpdate{tc.first})
			m.Merge([]MemberUpdate{tc.second})
			mustState(t, m, "http://b", tc.want)
			for _, u := range m.Snapshot() {
				if u.Name == "http://b" && u.Incarnation != tc.wantIncarnation {
					t.Fatalf("incarnation = %d, want %d", u.Incarnation, tc.wantIncarnation)
				}
			}
		})
	}
}

// TestMergeOrderIndependence: the merge relation is a join-semilattice,
// so folding the same updates in any order converges to the same view —
// the property that lets replicas gossip without coordination.
func TestMergeOrderIndependence(t *testing.T) {
	updates := []MemberUpdate{
		{Name: "http://b", State: "alive", Incarnation: 1},
		{Name: "http://b", State: "suspect", Incarnation: 1},
		{Name: "http://b", State: "alive", Incarnation: 2},
		{Name: "http://c", State: "dead", Incarnation: 4},
		{Name: "http://c", State: "alive", Incarnation: 3},
		{Name: "http://d", State: "left", Incarnation: 0},
		{Name: "http://e", State: "suspect", Incarnation: 7},
	}
	// Forward order, reverse order, and one-at-a-time interleaved.
	a, _ := newTestMemberlist()
	a.Merge(updates)
	b, _ := newTestMemberlist()
	for i := len(updates) - 1; i >= 0; i-- {
		b.Merge(updates[i : i+1])
	}
	c, _ := newTestMemberlist()
	c.Merge(updates)
	c.Merge(updates) // idempotence
	sa, sb, sc := a.Snapshot(), b.Snapshot(), c.Snapshot()
	if fmt.Sprint(sa) != fmt.Sprint(sb) {
		t.Fatalf("order-dependent merge:\nforward: %v\nreverse: %v", sa, sb)
	}
	if fmt.Sprint(sa) != fmt.Sprint(sc) {
		t.Fatalf("non-idempotent merge:\nonce: %v\ntwice: %v", sa, sc)
	}
}

// TestRefutation: gossip claiming self is suspect or dead is refuted by
// outbidding — self's incarnation jumps past the rumor's, so the
// refutation outranks it everywhere it spreads.
func TestRefutation(t *testing.T) {
	m, _ := newTestMemberlist("http://b")
	if inc := m.SelfIncarnation(); inc != 0 {
		t.Fatalf("initial self incarnation = %d, want 0", inc)
	}
	m.Merge([]MemberUpdate{{Name: "http://self", State: "suspect", Incarnation: 0}})
	if inc := m.SelfIncarnation(); inc != 1 {
		t.Fatalf("after suspect rumor at 0: self incarnation = %d, want 1", inc)
	}
	m.Merge([]MemberUpdate{{Name: "http://self", State: "dead", Incarnation: 4}})
	if inc := m.SelfIncarnation(); inc != 5 {
		t.Fatalf("after death rumor at 4: self incarnation = %d, want 5", inc)
	}
	// A stale rumor below the current incarnation changes nothing.
	m.Merge([]MemberUpdate{{Name: "http://self", State: "suspect", Incarnation: 2}})
	if inc := m.SelfIncarnation(); inc != 5 {
		t.Fatalf("stale rumor moved self incarnation to %d", inc)
	}
	// Alive gossip about self at a higher incarnation (our own refutation
	// echoed back after a restart) is adopted.
	m.Merge([]MemberUpdate{{Name: "http://self", State: "alive", Incarnation: 9}})
	if inc := m.SelfIncarnation(); inc != 9 {
		t.Fatalf("echoed refutation not adopted: self incarnation = %d, want 9", inc)
	}
	// Self is never demoted in its own list.
	mustState(t, m, "http://self", StateAlive)
}

// TestFirsthandRevival: direct contact outranks any rumor, including a
// tombstone — the restarted-replica path. The revived incarnation is
// bumped past the tombstone's so the resurrection wins the gossip race.
func TestFirsthandRevival(t *testing.T) {
	m, _ := newTestMemberlist()
	m.Merge([]MemberUpdate{{Name: "http://b", State: "dead", Incarnation: 7}})
	mustState(t, m, "http://b", StateDead)
	// The replica restarted: its incarnation reset to 0, but it spoke to
	// us directly.
	if !m.NoteFirsthand("http://b", 0) {
		t.Fatal("firsthand contact did not change a dead member")
	}
	mustState(t, m, "http://b", StateAlive)
	for _, u := range m.Snapshot() {
		if u.Name == "http://b" && u.Incarnation <= 7 {
			t.Fatalf("revived incarnation %d does not outrank tombstone at 7", u.Incarnation)
		}
	}
	// Suspect members are cleared by firsthand contact too.
	m.Merge([]MemberUpdate{{Name: "http://c", State: "alive", Incarnation: 0}})
	m.MarkSuspect("http://c")
	mustState(t, m, "http://c", StateSuspect)
	m.NoteFirsthand("http://c", 0)
	mustState(t, m, "http://c", StateAlive)
	// An alive member heard from again at the same incarnation: no-op.
	if m.NoteFirsthand("http://c", 0) {
		t.Fatal("steady-state firsthand contact reported a change")
	}
}

// TestSuspectLifecycle: a suspicion left unrefuted past the timeout
// becomes dead and leaves the ring; a tombstone is GC'd much later.
func TestSuspectLifecycle(t *testing.T) {
	m, clk := newTestMemberlist("http://b", "http://c")
	m.MarkSuspect("http://b")
	// Suspects stay on the ring (no remap on a transient probe loss).
	if ring := m.RingMembers(); len(ring) != 3 {
		t.Fatalf("ring = %v, want all three members while suspect", ring)
	}
	clk.Advance(500 * time.Millisecond)
	if m.SweepSuspects(time.Second) {
		t.Fatal("sweep before timeout changed membership")
	}
	clk.Advance(time.Second)
	if !m.SweepSuspects(time.Second) {
		t.Fatal("sweep after timeout did not promote suspect to dead")
	}
	mustState(t, m, "http://b", StateDead)
	if ring := m.RingMembers(); len(ring) != 2 {
		t.Fatalf("ring = %v, want dead member dropped", ring)
	}
	// The tombstone outlives gossip of that incarnation, then is GC'd.
	clk.Advance(17 * time.Second)
	m.SweepSuspects(time.Second)
	if _, known := m.StateOf("http://b"); known {
		t.Fatal("tombstone never garbage-collected")
	}
}

// TestEpochConvergence: the epoch is a content hash of the sorted
// membership, so replicas that agree on members agree on the epoch with
// no coordination — and any membership change moves it.
func TestEpochConvergence(t *testing.T) {
	a, _ := newTestMemberlist("http://b", "http://c")
	b := newMemberlist("http://b", []string{"http://self", "http://c"}, newFakeClock().Now, nil)
	ea, eb := EpochOf(a.RingMembers()), EpochOf(b.RingMembers())
	if ea != eb {
		t.Fatalf("same membership, different epochs: %x vs %x", ea, eb)
	}
	a.MarkSuspect("http://c")
	if got := EpochOf(a.RingMembers()); got != ea {
		t.Fatal("suspicion alone moved the epoch (suspects stay on the ring)")
	}
	a.SweepSuspects(0) // immediate: suspect -> dead
	after := EpochOf(a.RingMembers())
	if after == ea {
		t.Fatal("losing a member did not move the epoch")
	}
	// The other replica converges to the same epoch by gossip.
	b.Merge(a.Snapshot())
	if got := EpochOf(b.RingMembers()); got != after {
		t.Fatalf("converged membership, different epochs: %x vs %x", got, after)
	}
}
