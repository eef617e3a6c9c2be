package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/rng"
)

// Per-peer failure handling, SWIM-style. A background prober drives the
// gossip protocol: each round it probes every ring member directly,
// falls back to indirect probes through K relays when the direct probe
// fails, and downgrades unreachable members alive → suspect → dead on
// the membership list (membership.go), which in turn moves their keys
// on the ring. Every member also carries its own circuit breaker (the
// shared internal/breaker machine, the same one guarding
// per-fingerprint runs in serve) so a flapping replica is cut off after
// repeated request failures instead of adding its timeout to every
// render. Membership gates routing — the takeover order and steal
// targets only consider alive members — while the breaker gates
// individual requests in between probe rounds, and membership taking a
// member back closes its breaker.

// peerState is the request-tracking state for one remote member. The
// mutex guards the breaker and the last error; inflight is atomic so
// the dispatcher's least-loaded choice never takes the lock. Liveness
// lives on the Memberlist, not here.
type peerState struct {
	name string // base URL

	inflight atomic.Int64 // outstanding steal requests from this replica

	mu      sync.Mutex
	b       *breaker.Breaker
	lastErr string
}

// PeerHealth is the externally visible snapshot of one peer, reported
// in the cluster-aware /readyz detail.
type PeerHealth struct {
	Peer        string `json:"peer"`
	Healthy     bool   `json:"healthy"` // state == alive
	State       string `json:"state"`   // alive | suspect | dead | left
	Incarnation uint64 `json:"incarnation"`
	Breaker     string `json:"breaker"` // closed | open | half_open
	Inflight    int64  `json:"inflight_steals"`
	LastErr     string `json:"last_error,omitempty"`
}

// allow consults the breaker before a request to this peer.
func (p *peerState) allow(now time.Time) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, _, ok := p.b.Allow(now)
	return ok
}

// noteErr records the most recent request error for status reporting.
func (p *peerState) noteErr(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lastErr = err.Error()
}

// peerHealthFor renders one member's PeerHealth from its membership
// record plus (when we have talked to it) its request-tracking state.
func (c *Cluster) peerHealthFor(u MemberUpdate) PeerHealth {
	ph := PeerHealth{
		Peer:        u.Name,
		Healthy:     u.State == StateAlive.String(),
		State:       u.State,
		Incarnation: u.Incarnation,
		Breaker:     breaker.Closed.String(),
	}
	if p := c.lookupPeer(u.Name); p != nil {
		p.mu.Lock()
		ph.Breaker = p.b.State().String()
		ph.LastErr = p.lastErr
		p.mu.Unlock()
		ph.Inflight = p.inflight.Load()
	}
	return ph
}

// reportSuccess feeds a successful request into the breaker.
func (c *Cluster) reportSuccess(p *peerState) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.b.Success() {
		c.breakerOpenG.With(p.name).Set(0)
	}
}

// reportFailure feeds a failed request into the breaker.
func (c *Cluster) reportFailure(p *peerState, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lastErr = err.Error()
	if p.b.Failure(c.now()) {
		c.breakerOpenG.With(p.name).Set(1)
	}
}

// probeLoop drives gossip rounds at the configured interval until
// Close. It runs in its own goroutine; the deferred recover is the
// daemon-survival backstop required of every goroutine in this layer.
func (c *Cluster) probeLoop() {
	defer c.wg.Done()
	defer func() {
		if p := recover(); p != nil {
			// A prober panic must not kill the process. Members keep
			// their last-known state; requests still go through
			// per-request breakers, so the cluster degrades instead of
			// crashing.
			c.probePanics.Inc()
		}
	}()
	t := time.NewTicker(c.opts.ProbeInterval)
	defer t.Stop()
	c.probeRound()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			c.probeRound()
		}
	}
}

// probeRound runs one gossip round: retry the join protocol if no seed
// has answered yet, probe every remote ring member concurrently (each
// goroutine phase-shifted by its deterministic per-peer jitter), then
// sweep suspicion timeouts. Rounds never overlap — a hung peer costs
// one timeout per round, not a goroutine per tick.
func (c *Cluster) probeRound() {
	if !c.joined {
		c.tryJoin()
	}
	var wg sync.WaitGroup
	for _, name := range c.members.RingMembers() {
		if name == c.self {
			continue
		}
		wg.Add(1)
		name := name
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					c.probePanics.Inc()
				}
			}()
			if !c.jitterWait(name) {
				return // shutting down
			}
			c.probeMember(name)
		}()
	}
	// Reconnection probe: a dead member is off the ring, so nothing on
	// the request path contacts it again — without this, a healed
	// partition would stay split forever (both sides hold each other's
	// tombstones, and gossiped liveness cannot un-bury a tombstone; only
	// firsthand contact can). One tombstone per round, rotating in
	// sorted order, gets a direct probe; success resurrects it past its
	// tombstone incarnation and the reunion gossips outward. Tombstone
	// GC bounds the horizon: a partition outliving the GC window needs
	// an explicit rejoin (-join), the same as a cold start.
	if dead := c.members.DeadMembers(); len(dead) > 0 {
		name := dead[int(c.rounds%uint64(len(dead)))]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					c.probePanics.Inc()
				}
			}()
			c.reconnectProbe(name)
		}()
	}
	c.rounds++
	wg.Wait()
	if c.members.SweepSuspects(c.opts.SuspectTimeout) {
		c.membershipChanged()
	}
}

// reconnectProbe direct-probes a dead tombstone. Failure is the
// expected steady state and changes nothing; success is first contact
// after a heal and revives the member.
func (c *Cluster) reconnectProbe(name string) {
	ps := c.peerStateFor(name)
	prevState, _ := c.members.StateOf(name)
	pctx, cancel := context.WithTimeout(context.Background(), c.opts.ProbeTimeout)
	ack, err := c.client.probe(pctx, name, c.probeBody())
	cancel()
	c.gossipSent.With("probe").Inc()
	if err != nil {
		return
	}
	c.reportSuccess(ps)
	c.absorbContact(name, ack.Incarnation, ack.Members, prevState)
}

// jitterWait sleeps this replica's deterministic phase offset for peer
// before probing it, so a fleet started in lockstep does not converge
// its probes into synchronized storms. The offset is a pure function of
// (self, peer) through the seeded rng — under the chaos harness, probe
// timing is reproducible run to run. Returns false if the cluster shut
// down mid-wait.
func (c *Cluster) jitterWait(peer string) bool {
	frac := rng.NewFromString("probe-jitter|" + c.self + "|" + peer).Float64()
	d := time.Duration(frac * float64(c.opts.ProbeInterval) / 2)
	if d <= 0 {
		return true
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-c.stop:
		return false
	case <-timer.C:
		return true
	}
}

// probeMember runs the SWIM sequence for one member: direct probe;
// on failure, indirect probes through up to indirectProbes alive
// relays; if nothing reaches it, mark it suspect. Gossip is exchanged
// on every successful hop.
func (c *Cluster) probeMember(name string) {
	ps := c.peerStateFor(name)
	prevState, _ := c.members.StateOf(name)

	pctx, cancel := context.WithTimeout(context.Background(), c.opts.ProbeTimeout)
	ack, err := c.client.probe(pctx, name, c.probeBody())
	cancel()
	c.gossipSent.With("probe").Inc()
	if err == nil {
		c.reportSuccess(ps)
		c.absorbContact(name, ack.Incarnation, ack.Members, prevState)
		return
	}
	c.probeFailures.With(name).Inc()
	ps.noteErr(err)
	c.reportFailure(ps, err)

	// Indirect probes: maybe our link to the member is down, not the
	// member. Relays are the first K alive members (sorted order —
	// deterministic, and with ring-scale N the "first K" are as good as
	// random K).
	for _, relay := range c.relaysFor(name, indirectProbes) {
		ictx, icancel := context.WithTimeout(context.Background(), c.opts.ProbeTimeout+requestTimeout)
		iack, ierr := c.client.indirectProbe(ictx, relay, IndirectProbeRequest{
			From:        c.self,
			Incarnation: c.members.SelfIncarnation(),
			Target:      name,
			Members:     c.members.Snapshot(),
		})
		icancel()
		c.gossipSent.With("probe_indirect").Inc()
		if ierr != nil {
			continue
		}
		changed := c.members.Merge(iack.Members)
		if iack.TargetOK {
			// The relay reached it just now: firsthand-by-proxy. Keep the
			// member alive at its current incarnation.
			if c.members.NoteFirsthand(name, 0) {
				changed = true
			}
			if changed {
				c.membershipChanged()
			}
			if prevState != StateAlive {
				c.healthTransitions.With(name, "up").Inc()
			}
			c.peerHealthyG.With(name).Set(1)
			return
		}
		if changed {
			c.membershipChanged()
		}
	}

	// Direct and indirect probes all failed: suspect. The member's keys
	// keep their ring position but the authority walk skips it; if it
	// refutes (or any probe reaches it) before SuspectTimeout it comes
	// back, otherwise the sweep declares it dead and the ring moves.
	if c.members.MarkSuspect(name) {
		c.healthTransitions.With(name, "down").Inc()
		c.membershipChanged()
	}
	c.peerHealthyG.With(name).Set(0)
}

// absorbContact records a successful firsthand exchange with a member
// and merges its piggybacked gossip.
func (c *Cluster) absorbContact(name string, inc uint64, updates []MemberUpdate, prevState MemberState) {
	first := c.members.NoteFirsthand(name, inc)
	merged := c.members.Merge(updates)
	if first || merged {
		c.membershipChanged()
	}
	if prevState != StateAlive {
		c.healthTransitions.With(name, "up").Inc()
	}
	c.peerHealthyG.With(name).Set(1)
}

// relaysFor returns up to k alive members, excluding self and target —
// the relay set for indirect probes and the audience for a leave
// broadcast.
func (c *Cluster) relaysFor(target string, k int) []string {
	out := make([]string, 0, k)
	for _, u := range c.members.Snapshot() {
		if len(out) == k {
			break
		}
		if u.Name == c.self || u.Name == target || u.State != StateAlive.String() {
			continue
		}
		out = append(out, u.Name)
	}
	return out
}

// tryJoin probes the configured seeds in turn, stopping at the first
// that answers: its ack admits this replica and hands it the seed's
// full view. Called from the probe loop every round until it succeeds,
// so a replica started before its seed converges as soon as the seed
// comes up.
func (c *Cluster) tryJoin() {
	for _, seed := range c.opts.Join {
		prevState, _ := c.members.StateOf(seed)
		jctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
		ack, err := c.client.probe(jctx, seed, c.probeBody())
		cancel()
		c.gossipSent.With("join").Inc()
		if err != nil {
			continue
		}
		c.absorbContact(seed, ack.Incarnation, ack.Members, prevState)
		c.joined = true
		return
	}
}

// Leave broadcasts a graceful departure: self marked left at a freshly
// bumped incarnation (so the announcement outranks any alive record in
// flight), sent best-effort to up to three alive members who gossip it
// onward. A lost leave costs the survivors one suspicion cycle — the
// same path as a crash — never bytes.
func (c *Cluster) Leave(ctx context.Context) {
	inc := c.members.BumpSelf()
	snap := c.members.Snapshot()
	for i := range snap {
		if snap[i].Name == c.self {
			snap[i].State = StateLeft.String()
			snap[i].Incarnation = inc
		}
	}
	targets := c.relaysFor("", 3)
	var wg sync.WaitGroup
	for _, name := range targets {
		wg.Add(1)
		name := name
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					c.probePanics.Inc()
				}
			}()
			lctx, cancel := context.WithTimeout(ctx, requestTimeout)
			defer cancel()
			_, _ = c.client.probe(lctx, name, ProbeRequest{From: c.self, Incarnation: inc, Members: snap})
			c.gossipSent.With("leave").Inc()
		}()
	}
	wg.Wait()
}
