// Package cluster turns the determinism contract into a scaling
// mechanism. A configuration fingerprint names exactly one artifact
// byte-set no matter which process computes it, so a set of rcpt-serve
// replicas needs no state replication at all — only agreement on who
// computes what first. Three pieces provide that agreement, each
// degrading to local compute when peers misbehave:
//
//   - a consistent-hash ring (ring.go) routes each fingerprint to an
//     owner replica, concentrating cache hits and collapsing duplicate
//     work onto the owner's singleflight;
//   - cluster-wide singleflight (Takeover + the serve integration):
//     non-owners fill from the fingerprint's authority, and a fill
//     that cannot reach it walks on down the takeover order, so every
//     replica that lost the same authority lands on the same next live
//     member and at most one surviving replica executes the run;
//   - work-stealing stage dispatch (dispatch.go): the replica executing
//     a run farms its stealable stages out to idle peers, which answer
//     with the stage payload under its SHA-256 ETag, falling back to
//     local compute on any fault.
//
// The resulting invariant, pinned by the peer-death and partition
// tests: faults cost latency, never bytes. Any replica, any failure
// pattern, same artifacts.
//
// Membership is dynamic (membership.go, gossip.go): replicas probe each
// other SWIM-style (direct probe, then indirect probe through K relays,
// then alive→suspect→dead with incarnation numbers), gossip their full
// member list on every probe and ack, and admit a newcomer when it
// probes a seed node (-join). The hash ring is rebuilt from the
// live member list under a content-derived epoch — replicas that agree
// on membership agree on the epoch with no coordination — and authority
// fills carry that epoch so a request that straddles a handover is
// detected and retried against the new authority. Because duplicate
// computes are byte-identical, every window of membership disagreement
// costs at most duplicated CPU, never wrong bytes.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/breaker"
	"repro/internal/obs"
	"repro/internal/table"
)

// epochGaugeMask truncates the 64-bit content-derived epoch to 53 bits
// so the Prometheus gauge (a float64) represents it exactly; the full
// value is exposed as hex in /readyz. Equality comparisons on
// the gauge remain sound — 53 bits of a SHA-256 prefix do not collide
// across the handful of membership sets a ring sees in its lifetime.
const epochGaugeMask = (uint64(1) << 53) - 1

// Options configures a replica's view of the cluster.
type Options struct {
	// Self is this replica's advertised base URL (e.g.
	// "http://127.0.0.1:8091"). With static membership (Join empty) it
	// must appear in Peers.
	Self string
	// Peers statically seeds the member list with every replica's base
	// URL, including Self. A single-element list (just Self) is a valid
	// bootstrap seed node that others join.
	Peers []string
	// Join lists seed nodes to announce to at startup instead of (or in
	// addition to) a static peer list. The replica pulls the member
	// list from the first reachable seed and gossips its own arrival;
	// join is retried every probe round until a seed answers.
	Join []string
	// Secret authenticates peer endpoints. Empty disables auth (tests,
	// trusted localhost rings).
	Secret string
	// ProbeInterval is the gossip-probe period (<=0: 2s); ProbeTimeout
	// bounds one probe request (<=0: 1s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// SuspectTimeout is how long a member stays suspect before being
	// declared dead and dropped from the ring (<=0: max(3s, 5×probe
	// interval)). Long enough for a refutation to circulate; short
	// enough that a dead replica's keys move promptly.
	SuspectTimeout time.Duration
	// WrapTransport, when set, wraps the peer transport — the chaos
	// harness injects its deterministic network-fault RoundTripper
	// here.
	WrapTransport func(http.RoundTripper) http.RoundTripper
}

const (
	// indirectProbes is how many relays are asked to probe a peer that
	// failed its direct probe before it is suspected.
	indirectProbes = 2
	// peerBreakerThreshold consecutive request failures open a peer's
	// circuit for peerBreakerCooldown.
	peerBreakerThreshold = 3
	peerBreakerCooldown  = 5 * time.Second
	// requestTimeout bounds control-plane requests: join, leave and
	// indirect probe calls. Artifact fills and stage steals are
	// compute-bound on the far side and use fillTimeout, which is also
	// the peer HTTP client's overall timeout.
	requestTimeout = 5 * time.Second
	fillTimeout    = 120 * time.Second
)

func (o Options) withDefaults() Options {
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 2 * time.Second
	}
	if o.ProbeTimeout <= 0 {
		o.ProbeTimeout = time.Second
	}
	if o.SuspectTimeout <= 0 {
		o.SuspectTimeout = 5 * o.ProbeInterval
		if o.SuspectTimeout < 3*time.Second {
			o.SuspectTimeout = 3 * time.Second
		}
	}
	return o
}

// Cluster is one replica's handle on the peer protocol: membership and
// gossip, ring routing under an epoch, peer fills, stage stealing, and
// health tracking.
type Cluster struct {
	opts    Options
	self    string
	client  *peerClient
	members *Memberlist
	// now is time.Now, read through a value: rngpurity forbids direct
	// time.Now calls in this package.
	now func() time.Time

	// ring and epoch are rebuilt together from the live member list on
	// every membership change; readers take the RLock for one routing
	// decision and never hold it across I/O.
	ringMu sync.RWMutex
	ring   *Ring
	epoch  uint64

	peersMu sync.RWMutex
	byName  map[string]*peerState

	selfInflight atomic.Int64

	joined bool // join protocol completed (true from birth when Join is empty)

	// rounds counts completed probe rounds; it drives the reconnection
	// probe's rotation through dead tombstones. Touched only by the
	// single prober goroutine.
	rounds uint64

	stop    chan struct{}
	wg      sync.WaitGroup
	started bool

	peerFills         *obs.CounterVec // outcome: ok | miss | error | integrity | not_authority
	steals            *obs.CounterVec // outcome: local | remote | fallback
	stealSeconds      *obs.Histogram
	peerHealthyG      *obs.GaugeVec   // peer
	breakerOpenG      *obs.GaugeVec   // peer
	probeFailures     *obs.CounterVec // peer
	healthTransitions *obs.CounterVec // peer, direction: up | down
	probePanics       *obs.Counter

	membersG      *obs.Gauge
	suspectsG     *obs.Gauge
	epochG        *obs.Gauge
	gossipSent    *obs.CounterVec // type: probe | probe_indirect | join | leave
	gossipRecv    *obs.CounterVec // type: probe | probe_indirect
	memberEvents  *obs.CounterVec // event: join | alive | suspect | dead | left | refute
	epochMismatch *obs.CounterVec // op: fill | stage
}

// New validates the membership options, builds the initial ring, and
// registers the cluster metric families on reg. It does not start
// probing or joining — call Start once the local listener is up, so
// peers' first probes of a booting ring don't race its bind.
func New(opts Options, reg *obs.Registry) (*Cluster, error) {
	opts = opts.withDefaults()
	if opts.Self == "" {
		return nil, fmt.Errorf("cluster: Self is required")
	}
	opts.Self = normalizePeer(opts.Self)
	seen := map[string]bool{}
	peers := make([]string, 0, len(opts.Peers))
	for _, p := range opts.Peers {
		p = normalizePeer(p)
		if p == "" {
			return nil, fmt.Errorf("cluster: empty peer URL")
		}
		if !validPeer(p) {
			return nil, fmt.Errorf("cluster: peer %q is not an http(s) base URL", p)
		}
		if seen[p] {
			return nil, fmt.Errorf("cluster: duplicate peer %q", p)
		}
		seen[p] = true
		peers = append(peers, p)
	}
	joinSeeds := make([]string, 0, len(opts.Join))
	for _, j := range opts.Join {
		j = normalizePeer(j)
		if j == "" || j == opts.Self {
			continue
		}
		if !validPeer(j) {
			return nil, fmt.Errorf("cluster: join seed %q is not an http(s) base URL", j)
		}
		joinSeeds = append(joinSeeds, j)
	}
	opts.Join = joinSeeds
	if len(joinSeeds) == 0 {
		// Static membership: the classic -peers contract. Self must be
		// listed; a single-element list is a seed node awaiting joins.
		if !seen[opts.Self] {
			return nil, fmt.Errorf("cluster: Self %q is not among the configured peers", opts.Self)
		}
	} else if !seen[opts.Self] {
		// Join mode: membership starts as self plus whatever the seeds
		// teach us.
		peers = append(peers, opts.Self)
	}
	hc := newHTTPClient(fillTimeout)
	if opts.WrapTransport != nil {
		hc.Transport = opts.WrapTransport(hc.Transport)
	}
	c := &Cluster{
		opts:   opts,
		self:   opts.Self,
		client: &peerClient{hc: hc, secret: opts.Secret},
		now:    time.Now,
		byName: map[string]*peerState{},
		joined: len(joinSeeds) == 0,
		stop:   make(chan struct{}),

		peerFills: reg.CounterVec("rcpt_cluster_peer_fills_total",
			"peer cache-fill attempts by outcome", "outcome"),
		steals: reg.CounterVec("rcpt_cluster_stage_steals_total",
			"trace-stage dispatch decisions by outcome", "outcome"),
		stealSeconds: reg.Histogram("rcpt_cluster_stage_steal_seconds",
			"remote stage execution latency (successful steals)", obs.DefBuckets()),
		peerHealthyG: reg.GaugeVec("rcpt_cluster_peer_healthy",
			"1 while the peer is an alive member (not suspect, dead, or left)", "peer"),
		breakerOpenG: reg.GaugeVec("rcpt_cluster_peer_breaker_open",
			"1 while the peer's circuit breaker is open", "peer"),
		probeFailures: reg.CounterVec("rcpt_cluster_probe_failures_total",
			"failed direct probes per peer", "peer"),
		healthTransitions: reg.CounterVec("rcpt_cluster_health_transitions_total",
			"peer health flips observed by the prober", "peer", "direction"),
		probePanics: reg.Counter("rcpt_cluster_probe_panics_total",
			"recovered panics inside the gossip prober"),

		membersG: reg.Gauge("rcpt_cluster_members",
			"ring members (self plus alive and suspect peers)"),
		suspectsG: reg.Gauge("rcpt_cluster_suspects",
			"members currently suspected but not yet declared dead"),
		epochG: reg.Gauge("rcpt_cluster_epoch",
			"ring epoch (low 53 bits of the membership content hash; full value in /readyz)"),
		gossipSent: reg.CounterVec("rcpt_cluster_gossip_sent_total",
			"gossip messages sent, by type", "type"),
		gossipRecv: reg.CounterVec("rcpt_cluster_gossip_received_total",
			"gossip messages received, by type", "type"),
		memberEvents: reg.CounterVec("rcpt_cluster_membership_events_total",
			"membership state transitions observed locally, by event", "event"),
		epochMismatch: reg.CounterVec("rcpt_cluster_epoch_mismatch_total",
			"peer exchanges whose two sides held different ring epochs, by operation", "op"),
	}
	c.members = newMemberlist(opts.Self, peers, c.now, func(ev memberEvent, member string) {
		c.memberEvents.With(string(ev)).Inc()
		// Probes feed the breaker, so a partition opened it; a member
		// that membership takes back is on the ring again and must not
		// stay refused by fills and steals until the cooldown ends.
		// Lock order: m.mu (held here), then peersMu, then p.mu.
		if ev == eventJoin || ev == eventAlive {
			if p := c.lookupPeer(member); p != nil {
				c.reportSuccess(p)
			}
		}
	})
	initial := c.members.RingMembers()
	c.ring = NewRing(initial, defaultVirtualNodes)
	c.epoch = EpochOf(initial)
	c.membershipChanged()
	return c, nil
}

// Start launches the gossip prober (which also drives the join
// protocol until a seed answers). Idempotent.
func (c *Cluster) Start() {
	if c.started {
		return
	}
	c.started = true
	c.wg.Add(1)
	go c.probeLoop()
}

// Close broadcasts a graceful leave, stops the prober, and waits for it
// to exit — at most one probe round — unless ctx expires first, in
// which case the prober is left to die on its own and ctx's error is
// returned. Idempotent.
func (c *Cluster) Close(ctx context.Context) error {
	if !c.started {
		return nil
	}
	select {
	case <-c.stop:
	default:
		c.Leave(ctx)
		close(c.stop)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() {
			// wg.Wait cannot panic; the backstop is the package-wide rule
			// that no cluster goroutine may unwind the process.
			_ = recover()
		}()
		c.wg.Wait()
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Self returns this replica's normalized base URL.
func (c *Cluster) Self() string { return c.self }

// Secret returns the shared peer secret (serve's auth middleware needs
// it to verify inbound peer requests).
func (c *Cluster) Secret() string { return c.opts.Secret }

// Epoch returns the current ring epoch: the content hash of the live
// member list. Replicas with the same membership view report the same
// epoch without any coordination.
func (c *Cluster) Epoch() uint64 {
	c.ringMu.RLock()
	defer c.ringMu.RUnlock()
	return c.epoch
}

// EpochHex renders the epoch as fixed-width hex, the wire and status
// form.
func (c *Cluster) EpochHex() string {
	return fmt.Sprintf("%016x", c.Epoch())
}

// Sequence returns the takeover order for key (owner first) under the
// current epoch.
func (c *Cluster) Sequence(key string) []string {
	c.ringMu.RLock()
	defer c.ringMu.RUnlock()
	return c.ring.Sequence(key)
}

// Members returns the current ring membership (sorted): self plus every
// alive or suspect peer.
func (c *Cluster) Members() []string {
	c.ringMu.RLock()
	defer c.ringMu.RUnlock()
	return c.ring.Peers()
}

// membershipChanged rebuilds the ring and epoch from the live member
// list and refreshes the membership gauges. Called after any merge,
// suspicion, sweep, or firsthand contact that may have changed state;
// cheap when nothing ring-visible moved.
func (c *Cluster) membershipChanged() {
	want := c.members.RingMembers()
	c.ringMu.Lock()
	if !equalStrings(c.ring.Peers(), want) {
		c.ring = NewRing(want, defaultVirtualNodes)
		c.epoch = EpochOf(want)
	}
	epoch := c.epoch
	c.ringMu.Unlock()

	alive, suspect := c.members.Counts()
	c.membersG.Set(int64(1 + alive + suspect))
	c.suspectsG.Set(int64(suspect))
	c.epochG.Set(int64(epoch & epochGaugeMask))
	for _, name := range want {
		if name == c.self {
			continue
		}
		c.peerStateFor(name)
	}
	c.refreshHealthGauges()
}

// refreshHealthGauges reconciles the per-peer healthy gauge with the
// membership table (the prober also sets it inline on transitions; this
// covers changes learned via gossip rather than our own probes).
func (c *Cluster) refreshHealthGauges() {
	for _, u := range c.members.Snapshot() {
		if u.Name == c.self {
			continue
		}
		if u.State == StateAlive.String() {
			c.peerHealthyG.With(u.Name).Set(1)
		} else {
			c.peerHealthyG.With(u.Name).Set(0)
		}
	}
}

// peerStateFor returns (creating on first sight) the request-tracking
// state — breaker, inflight counter, last error — for a member.
func (c *Cluster) peerStateFor(name string) *peerState {
	c.peersMu.RLock()
	ps := c.byName[name]
	c.peersMu.RUnlock()
	if ps != nil {
		return ps
	}
	c.peersMu.Lock()
	defer c.peersMu.Unlock()
	if ps = c.byName[name]; ps == nil {
		ps = &peerState{name: name, b: breaker.New(peerBreakerThreshold, peerBreakerCooldown)}
		c.byName[name] = ps
		c.breakerOpenG.With(name).Set(0)
	}
	return ps
}

// lookupPeer returns a member's peerState without creating one.
func (c *Cluster) lookupPeer(name string) *peerState {
	c.peersMu.RLock()
	defer c.peersMu.RUnlock()
	return c.byName[name]
}

// healthyPeer reports whether peer (never self) is an alive member.
func (c *Cluster) healthyPeer(peer string) bool {
	st, ok := c.members.StateOf(peer)
	return ok && st == StateAlive
}

// Takeover returns key's takeover order under the current epoch: the
// ring sequence (owner first) keeping self and every alive peer.
// Suspects keep their ring position but are skipped, so their keys are
// served without waiting out the suspicion. Every replica walks the
// same sequence with (eventually) the same membership view, so a fill
// that cannot reach one member moves on to the same next one from
// every replica; transient disagreement during churn is safe because
// duplicate computes produce identical bytes. Self is always present.
func (c *Cluster) Takeover(key string) []string {
	seq := c.Sequence(key)
	order := seq[:0]
	for _, p := range seq {
		if p == c.self || c.healthyPeer(p) {
			order = append(order, p)
		}
	}
	return order
}

// Authority returns the replica that computes key: the first member of
// its takeover order.
func (c *Cluster) Authority(key string) string { return c.Takeover(key)[0] }

// Quorum reports how many ring members (including self) are currently
// alive, and the total ring membership (alive + suspect + self).
func (c *Cluster) Quorum() (healthy, total int) {
	alive, suspect := c.members.Counts()
	return 1 + alive, 1 + alive + suspect
}

// PeerHealth snapshots every known remote member's state — including
// dead and left tombstones, which operators want to see — sorted by
// name.
func (c *Cluster) PeerHealth() []PeerHealth {
	snap := c.members.Snapshot()
	out := make([]PeerHealth, 0, len(snap))
	for _, u := range snap {
		if u.Name == c.self {
			continue
		}
		out = append(out, c.peerHealthFor(u))
	}
	return out
}

// CheckEpoch meters a peer request (op: fill | stage) whose sender held
// a different ring epoch than this serving replica. The disagreement is
// advisory: bytes are content-addressed, so it is counted, never
// refused.
func (c *Cluster) CheckEpoch(op, reqEpoch string) {
	if reqEpoch != "" && reqEpoch != c.EpochHex() {
		c.epochMismatch.With(op).Inc()
	}
}

// FetchArtifact pulls one rendered artifact of run fp, which must be
// the peer's base run, from peer with breaker gating and integrity
// verification. The request carries this replica's ring epoch; a
// *NotAuthorityError return means the responder's ring disagrees that
// it should compute — the caller re-resolves the authority and retries
// rather than treating the peer as failed. mode says what the responder
// may do to answer (see FillMode).
func (c *Cluster) FetchArtifact(ctx context.Context, peer, fp, artifact, format string, mode FillMode) ([]byte, error) {
	p := c.peerStateFor(peer)
	if !p.allow(c.now()) {
		c.peerFills.With("error").Inc()
		return nil, fmt.Errorf("cluster: circuit open for peer %s", peer)
	}
	fctx, cancel := context.WithTimeout(ctx, fillTimeout)
	defer cancel()
	body, err := c.client.fetchArtifact(fctx, peer, fp, artifact, format, c.EpochHex(), mode)
	if err != nil {
		var na *NotAuthorityError
		if errors.As(err, &na) {
			// The peer answered coherently — it just disagrees about the
			// ring. Not a peer failure; count the handover and let the
			// caller re-resolve.
			c.reportSuccess(p)
			c.epochMismatch.With("fill").Inc()
			c.peerFills.With("not_authority").Inc()
			return nil, err
		}
		var pe *PeerError
		if errors.As(err, &pe) && pe.Status == http.StatusNotFound {
			// A hint miss or another base run: a coherent answer that
			// this peer does not hold the bytes, not a peer failure.
			c.reportSuccess(p)
			c.peerFills.With("miss").Inc()
			return nil, err
		}
		c.reportFailure(p, err)
		// A body that fails its ETag on intact transport points at a bug,
		// not weather, so integrity failures are metered apart.
		var ie *table.IntegrityError
		if errors.As(err, &ie) {
			c.peerFills.With("integrity").Inc()
		} else {
			c.peerFills.With("error").Inc()
		}
		return nil, err
	}
	c.reportSuccess(p)
	c.peerFills.With("ok").Inc()
	return body, nil
}

// equalStrings reports whether two sorted string slices are equal.
func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// normalizePeer canonicalizes a peer base URL (no trailing slash).
func normalizePeer(p string) string {
	return strings.TrimRight(strings.TrimSpace(p), "/")
}

// validPeer reports whether name is a normalized http(s) base URL, the
// form New requires of every -peers and -join entry. A member name
// gossip carries is checked the same way, so a malformed one never
// joins the ring.
func validPeer(name string) bool {
	return name == normalizePeer(name) && (strings.HasPrefix(name, "http://") || strings.HasPrefix(name, "https://"))
}

// NormalizePeer canonicalizes a peer base URL exactly the way the
// cluster names ring members, so components outside the package — the
// transport chaos injector keys link decisions by (src, dst) — line up
// with membership identities.
func NormalizePeer(p string) string { return normalizePeer(p) }
