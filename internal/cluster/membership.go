package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strings"
	"sync"
	"time"
)

// Dynamic membership, SWIM-style. Each replica keeps a local member
// list with per-member state (alive → suspect → dead, or left on
// graceful shutdown) and an incarnation number, and ships its entire
// list piggybacked on every probe, ack, and join exchange. Incarnation
// numbers give updates a total order per member: a higher incarnation
// always wins, and at equal incarnations the more pessimistic state
// wins (suspect over alive) except that dead/left are sticky — only a
// fresh firsthand contact, which bumps the incarnation past the
// tombstone, resurrects a member. A replica that learns it is suspected
// refutes by incrementing its own incarnation, which outranks the
// suspicion everywhere it gossips.
//
// No consensus anywhere: the lists converge because the merge relation
// is a join-semilattice (commutative, idempotent, monotone), and the
// determinism contract makes convergence *sufficient* — during any
// window where two replicas disagree about membership they can at worst
// both compute a fingerprint, producing identical bytes.

// MemberState is one member's position in the SWIM lifecycle.
type MemberState uint8

const (
	// StateAlive: responding to probes (directly or via a relay).
	StateAlive MemberState = iota
	// StateSuspect: a probe round failed; still in the ring (its keys
	// are served by the next peer in sequence) pending refutation.
	StateSuspect
	// StateDead: suspicion timed out; removed from the ring.
	StateDead
	// StateLeft: announced a graceful departure; removed from the ring.
	StateLeft
)

func (s MemberState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	case StateLeft:
		return "left"
	default:
		return "unknown"
	}
}

// parseMemberState reverses MemberState.String for the wire form.
func parseMemberState(s string) (MemberState, bool) {
	switch s {
	case "alive":
		return StateAlive, true
	case "suspect":
		return StateSuspect, true
	case "dead":
		return StateDead, true
	case "left":
		return StateLeft, true
	default:
		return StateAlive, false
	}
}

// MemberUpdate is one member's record as gossiped on the wire.
type MemberUpdate struct {
	Name        string `json:"name"`  // normalized base URL
	State       string `json:"state"` // alive | suspect | dead | left
	Incarnation uint64 `json:"incarnation"`
}

// memberInfo is the in-memory record for one remote member.
type memberInfo struct {
	state       MemberState
	incarnation uint64
	since       time.Time // when state last changed (suspect timeout, tombstone GC)
}

// memberEvent names a membership transition for the events counter.
type memberEvent string

const (
	eventJoin    memberEvent = "join"
	eventAlive   memberEvent = "alive"
	eventSuspect memberEvent = "suspect"
	eventDead    memberEvent = "dead"
	eventLeft    memberEvent = "left"
	eventRefute  memberEvent = "refute"
)

// Memberlist is one replica's convergent view of the cluster. Self is
// implicit — always alive at the current self-incarnation — and remote
// members live in the map, including dead/left tombstones (kept so
// stale alive gossip cannot resurrect a member the cluster already
// buried; tombstones are GC'd well after any gossip of that incarnation
// has died out).
type Memberlist struct {
	self string
	now  func() time.Time

	mu      sync.Mutex
	selfInc uint64
	members map[string]*memberInfo
	onEvent func(ev memberEvent, member string) // called with mu held; must not block
}

// newMemberlist builds the list with the given initial remote members,
// all alive at incarnation 0 (the static -peers bootstrap). onEvent may
// be nil.
func newMemberlist(self string, initial []string, now func() time.Time, onEvent func(memberEvent, string)) *Memberlist {
	m := &Memberlist{
		self:    self,
		now:     now,
		members: map[string]*memberInfo{},
		onEvent: onEvent,
	}
	t := now()
	for _, name := range initial {
		if name == self {
			continue
		}
		m.members[name] = &memberInfo{state: StateAlive, since: t}
	}
	return m
}

func (m *Memberlist) emit(ev memberEvent, member string) {
	if m.onEvent != nil {
		m.onEvent(ev, member)
	}
}

// SelfIncarnation returns this replica's current incarnation number.
func (m *Memberlist) SelfIncarnation() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.selfInc
}

// BumpSelf increments and returns the self incarnation — used by the
// leave broadcast so the departure announcement outranks any alive
// record still circulating.
func (m *Memberlist) BumpSelf() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.selfInc++
	return m.selfInc
}

// Snapshot renders the full membership — self included — sorted by
// name, ready to piggyback on a gossip message or a status response.
func (m *Memberlist) Snapshot() []MemberUpdate {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]MemberUpdate, 0, len(m.members)+1)
	out = append(out, MemberUpdate{Name: m.self, State: StateAlive.String(), Incarnation: m.selfInc})
	for name, info := range m.members {
		out = append(out, MemberUpdate{Name: name, State: info.state.String(), Incarnation: info.incarnation})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// RingMembers returns the sorted set of members that belong on the
// hash ring: self plus every remote in alive or suspect state. Suspects
// stay on the ring — demoting them instantly would remap keys on every
// transient probe loss — but the Authority walk skips them, so their
// keys are served by the next member in sequence until the suspicion
// resolves either way.
func (m *Memberlist) RingMembers() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.members)+1)
	out = append(out, m.self)
	for name, info := range m.members {
		if info.state == StateAlive || info.state == StateSuspect {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Counts reports how many remote members are alive and suspect.
func (m *Memberlist) Counts() (alive, suspect int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, info := range m.members {
		switch info.state {
		case StateAlive:
			alive++
		case StateSuspect:
			suspect++
		}
	}
	return alive, suspect
}

// StateOf returns a remote member's current state. Self reports alive.
// Unknown members report (dead, false).
func (m *Memberlist) StateOf(name string) (MemberState, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if name == m.self {
		return StateAlive, true
	}
	info, ok := m.members[name]
	if !ok {
		return StateDead, false
	}
	return info.state, true
}

// Merge folds a batch of gossiped updates into the local view and
// reports whether the ring membership may have changed. Precedence per
// member: higher incarnation wins outright; at equal incarnation
// suspect overrides alive, and dead/left override both (a terminal
// verdict at incarnation i kills any liveness claim at i). Updates
// about self never change self's record — a suspicion or death notice
// about self at the current incarnation is refuted by bumping the
// incarnation, which outranks the rumor everywhere. An update with an
// unknown state or a name that is not a normalized http(s) base URL is
// skipped.
func (m *Memberlist) Merge(updates []MemberUpdate) (changed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, u := range updates {
		state, ok := parseMemberState(u.State)
		if !ok || !validPeer(u.Name) {
			continue
		}
		if u.Name == m.self {
			if m.refuteLocked(state, u.Incarnation) {
				changed = true
			}
			continue
		}
		if m.applyLocked(u.Name, state, u.Incarnation) {
			changed = true
		}
	}
	return changed
}

// refuteLocked handles a gossiped claim about self. Caller holds m.mu.
func (m *Memberlist) refuteLocked(state MemberState, inc uint64) (changed bool) {
	switch state {
	case StateAlive:
		// Someone knows us at a higher incarnation (e.g. we refuted,
		// crashed, restarted, and the refutation outlived us): adopt it
		// so our own announcements keep outranking stale rumors.
		if inc > m.selfInc {
			m.selfInc = inc
		}
		return false
	default:
		// suspect/dead/left about self: refute by outbidding.
		if inc >= m.selfInc {
			m.selfInc = inc + 1
			m.emit(eventRefute, m.self)
			return true
		}
		return false
	}
}

// applyLocked folds one update about a remote member. Caller holds m.mu.
func (m *Memberlist) applyLocked(name string, state MemberState, inc uint64) (changed bool) {
	cur, known := m.members[name]
	if !known {
		// Terminal gossip about a member we never met is a tombstone
		// worth keeping (so later stale alive gossip stays dead), but it
		// is not a join.
		m.members[name] = &memberInfo{state: state, incarnation: inc, since: m.now()}
		if state == StateAlive || state == StateSuspect {
			m.emit(eventJoin, name)
			return true
		}
		return false
	}
	if !overrides(state, inc, cur.state, cur.incarnation) {
		return false
	}
	ringBefore := cur.state == StateAlive || cur.state == StateSuspect
	prev := cur.state
	cur.state = state
	cur.incarnation = inc
	cur.since = m.now()
	ringAfter := state == StateAlive || state == StateSuspect
	switch {
	case state == StateAlive && prev != StateAlive:
		m.emit(eventAlive, name)
	case state == StateSuspect && prev != StateSuspect:
		m.emit(eventSuspect, name)
	case state == StateDead && prev != StateDead:
		m.emit(eventDead, name)
	case state == StateLeft && prev != StateLeft:
		m.emit(eventLeft, name)
	}
	return ringBefore != ringAfter || state != prev
}

// overrides is the SWIM precedence relation: does (ns, ni) supersede
// (os, oi)?
func overrides(ns MemberState, ni uint64, os MemberState, oi uint64) bool {
	if ni > oi {
		// A higher incarnation always wins — except that a liveness
		// claim cannot un-bury a tombstone; only firsthand contact
		// (NoteFirsthand) resurrects, because gossip of "alive at i+1"
		// may predate the death it appears to refute.
		if (os == StateDead || os == StateLeft) && (ns == StateAlive || ns == StateSuspect) {
			return false
		}
		return true
	}
	if ni < oi {
		return false
	}
	// Equal incarnation: strictly more pessimistic wins.
	rank := func(s MemberState) int {
		switch s {
		case StateAlive:
			return 0
		case StateSuspect:
			return 1
		default: // dead, left
			return 2
		}
	}
	return rank(ns) > rank(os)
}

// NoteFirsthand records direct, authenticated contact from member name
// claiming incarnation inc: a probe, ack, or join we received from the
// member itself. Firsthand evidence outranks any rumor — including a
// tombstone, which is how a restarted replica (incarnation reset to 0)
// rejoins a ring that declared its previous life dead: the revived
// record's incarnation is bumped past the tombstone so the resurrection
// outgossips it. A name that is not a normalized http(s) base URL is
// ignored.
func (m *Memberlist) NoteFirsthand(name string, inc uint64) (changed bool) {
	if name == m.self || !validPeer(name) {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cur, known := m.members[name]
	if !known {
		m.members[name] = &memberInfo{state: StateAlive, incarnation: inc, since: m.now()}
		m.emit(eventJoin, name)
		return true
	}
	if cur.state == StateAlive && cur.incarnation >= inc {
		return false
	}
	newInc := inc
	if cur.incarnation >= newInc {
		newInc = cur.incarnation + 1
	}
	prev := cur.state
	cur.state = StateAlive
	cur.incarnation = newInc
	cur.since = m.now()
	if prev != StateAlive {
		if prev == StateDead || prev == StateLeft {
			m.emit(eventJoin, name)
		} else {
			m.emit(eventAlive, name)
		}
		return true
	}
	return false
}

// MarkSuspect downgrades an alive member after a failed probe round
// (direct and indirect probes all failed). The suspicion is pinned to
// the member's current incarnation so a refutation at +1 clears it.
func (m *Memberlist) MarkSuspect(name string) (changed bool) {
	if name == m.self {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	cur, ok := m.members[name]
	if !ok || cur.state != StateAlive {
		return false
	}
	cur.state = StateSuspect
	cur.since = m.now()
	m.emit(eventSuspect, name)
	return true
}

// SweepSuspects promotes suspicions older than timeout to dead and
// garbage-collects tombstones older than 16× the timeout (long after
// any gossip of that incarnation has stopped circulating). It reports
// whether the ring membership changed.
func (m *Memberlist) SweepSuspects(timeout time.Duration) (changed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now := m.now()
	// Collect-then-mutate in sorted order so event emission is
	// deterministic for a given clock.
	names := make([]string, 0, len(m.members))
	for name := range m.members {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		info := m.members[name]
		switch info.state {
		case StateSuspect:
			if now.Sub(info.since) >= timeout {
				info.state = StateDead
				info.since = now
				m.emit(eventDead, name)
				changed = true
			}
		case StateDead, StateLeft:
			if now.Sub(info.since) >= 16*timeout {
				delete(m.members, name)
			}
		}
	}
	return changed
}

// DeadMembers returns the sorted names of members currently held as
// dead tombstones — not graceful departures, which announced their own
// exit and rejoin via the join protocol. This is the reconnection
// probe's candidate set: dead members are off the ring, so nothing on
// the request path would ever contact them again, and a healed
// partition needs someone to make first contact.
func (m *Memberlist) DeadMembers() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, 2)
	for name, info := range m.members {
		if info.state == StateDead {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// EpochOf derives the ring epoch from a sorted member list: the first
// eight bytes of the SHA-256 over the newline-joined names. Deriving
// the epoch from content rather than a counter means replicas that
// converge on the same membership converge on the same epoch with no
// coordination — an epoch *is* a membership fingerprint, the same trick
// the artifact layer plays with configuration fingerprints.
func EpochOf(members []string) uint64 {
	sum := sha256.Sum256([]byte(strings.Join(members, "\n")))
	return binary.BigEndian.Uint64(sum[:8])
}
