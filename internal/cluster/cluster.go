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
//   - cluster-wide singleflight (lease.go + the serve integration):
//     non-owners first try a peer cache fill from the owner, and when
//     the owner is gone they race for a compute lease so at most one
//     surviving replica executes the run;
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
// member list on every probe and ack, and admit newcomers through a
// seed-node join protocol (-join). The hash ring is rebuilt from the
// live member list under a content-derived epoch — replicas that agree
// on membership agree on the epoch with no coordination — and authority
// fills and lease grants carry that epoch so a request that straddles a
// handover is detected and retried against the new authority. Because
// duplicate computes are byte-identical, every window of membership
// disagreement costs at most duplicated CPU, never wrong bytes.
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
// value is exposed as hex in /v1/peer/status. Equality comparisons on
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
	// LeaseTTL bounds how long a dead lease holder blocks takeover
	// (<=0: 15s).
	LeaseTTL time.Duration
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
	// requestTimeout bounds control-plane requests: lease, join, and
	// status calls. Artifact fills and stage steals are compute-bound on
	// the far side and use fillTimeout, which is also the peer HTTP
	// client's overall timeout.
	requestTimeout = 5 * time.Second
	fillTimeout    = 120 * time.Second
)

func (o Options) withDefaults() Options {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = defaultLeaseTTL
	}
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
// gossip, ring routing under an epoch, lease acquisition, peer fills,
// stage stealing, and health tracking.
type Cluster struct {
	opts    Options
	self    string
	client  *peerClient
	leases  *LeaseTable
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

	peerFills         *obs.CounterVec // outcome: ok | error | integrity | not_authority
	leaseReqs         *obs.CounterVec // outcome: granted | denied | error
	steals            *obs.CounterVec // outcome: local | remote | fallback
	stealSeconds      *obs.Histogram
	takeovers         *obs.Counter
	peerHealthyG      *obs.GaugeVec   // peer
	breakerOpenG      *obs.GaugeVec   // peer
	probeFailures     *obs.CounterVec // peer
	healthTransitions *obs.CounterVec // peer, direction: up | down
	probePanics       *obs.Counter

	membersG      *obs.Gauge
	suspectsG     *obs.Gauge
	epochG        *obs.Gauge
	gossipSent    *obs.CounterVec // type: probe | probe_indirect | join | leave
	gossipRecv    *obs.CounterVec // type: probe | probe_indirect | join
	memberEvents  *obs.CounterVec // event: join | alive | suspect | dead | left | refute
	epochMismatch *obs.CounterVec // op: fill | lease | stage
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
		leaseReqs: reg.CounterVec("rcpt_cluster_lease_requests_total",
			"compute-lease acquisition attempts by outcome", "outcome"),
		steals: reg.CounterVec("rcpt_cluster_stage_steals_total",
			"trace-stage dispatch decisions by outcome", "outcome"),
		stealSeconds: reg.Histogram("rcpt_cluster_stage_steal_seconds",
			"remote stage execution latency (successful steals)", obs.DefBuckets()),
		takeovers: reg.Counter("rcpt_cluster_lease_takeovers_total",
			"leases acquired from a non-owner authority after the owner was unreachable"),
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
			"ring epoch (low 53 bits of the membership content hash; full value in /v1/peer/status)"),
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
	})
	initial := c.members.RingMembers()
	c.ring = NewRing(initial, defaultVirtualNodes)
	c.epoch = EpochOf(initial)
	c.leases = NewLeaseTable(opts.LeaseTTL, c.now)
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

// Leases exposes the local lease table: this replica grants leases for
// keys it is the authority of.
func (c *Cluster) Leases() *LeaseTable { return c.leases }

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

// Owner returns the ring owner of key under the current epoch.
func (c *Cluster) Owner(key string) string {
	c.ringMu.RLock()
	defer c.ringMu.RUnlock()
	return c.ring.Owner(key)
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

// MemberUpdates snapshots the full membership table — including dead
// and left tombstones — for /v1/peer/status.
func (c *Cluster) MemberUpdates() []MemberUpdate { return c.members.Snapshot() }

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

// Authority returns the current lease authority for key: the first
// member in the ring sequence that is self or alive (suspects keep
// their ring position but are skipped, so their keys are served without
// waiting out the suspicion). Every replica walks the same sequence
// with (eventually) the same membership view, so they converge on the
// same authority; transient disagreement during churn is safe because
// duplicate computes produce identical bytes.
func (c *Cluster) Authority(key string) string {
	for _, p := range c.Sequence(key) {
		if p == c.self || c.healthyPeer(p) {
			return p
		}
	}
	return c.self
}

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

// AcquireLease obtains (or is denied) the compute lease on key,
// walking the takeover sequence: ask the owner first; if it is not
// alive or unreachable, ask the next alive member, and so on. Self
// grants locally. The final fallback — every candidate unreachable —
// grants locally: with the whole ring dark this replica must be able
// to serve alone, and a duplicate compute costs CPU, not correctness.
func (c *Cluster) AcquireLease(ctx context.Context, key string) (granted bool, holder string, err error) {
	epoch := c.EpochHex()
	for _, candidate := range c.Sequence(key) {
		if candidate == c.self {
			g, h, _ := c.leases.Acquire(key, c.self)
			c.countLease(g)
			if g && c.Owner(key) != c.self {
				c.takeovers.Inc()
			}
			return g, h, nil
		}
		p := c.lookupPeer(candidate)
		if p == nil || !c.healthyPeer(candidate) || !p.allow(c.now()) {
			continue
		}
		lctx, cancel := context.WithTimeout(ctx, requestTimeout)
		lr, lerr := c.client.postLease(lctx, candidate, LeaseRequest{Key: key, Holder: c.self, Epoch: epoch})
		cancel()
		if lerr != nil {
			c.reportFailure(p, lerr)
			c.leaseReqs.With("error").Inc()
			continue // authority unreachable: next in sequence takes over
		}
		c.reportSuccess(p)
		if lr.Epoch != "" && lr.Epoch != epoch {
			// The grant straddled a membership change: advisory-only
			// waste (at worst two computes of identical bytes), metered
			// so churn cost is visible.
			c.epochMismatch.With("lease").Inc()
		}
		c.countLease(lr.Granted)
		if lr.Granted && c.Owner(key) != candidate {
			c.takeovers.Inc()
		}
		return lr.Granted, lr.Holder, nil
	}
	g, h, _ := c.leases.Acquire(key, c.self)
	c.countLease(g)
	return g, h, nil
}

func (c *Cluster) countLease(granted bool) {
	if granted {
		c.leaseReqs.With("granted").Inc()
	} else {
		c.leaseReqs.With("denied").Inc()
	}
}

// CheckEpoch meters a peer request (op: fill | lease | stage) whose
// sender held a different ring epoch than this serving replica. The
// disagreement is advisory: bytes are content-addressed, so it is
// counted, never refused.
func (c *Cluster) CheckEpoch(op, reqEpoch string) {
	if reqEpoch != "" && reqEpoch != c.EpochHex() {
		c.epochMismatch.With(op).Inc()
	}
}

// ReleaseLease drops the lease on key, wherever it was granted.
// Best-effort: an unreachable authority's lease simply expires.
func (c *Cluster) ReleaseLease(ctx context.Context, key string) {
	authority := c.Authority(key)
	if authority == c.self {
		c.leases.Release(key, c.self)
		return
	}
	p := c.lookupPeer(authority)
	if p == nil || !c.healthyPeer(authority) {
		return
	}
	lctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	// TTL expiry is the backstop: a failed release costs at most one
	// LeaseTTL of blocked takeover, never correctness.
	if _, err := c.client.postLease(lctx, authority, LeaseRequest{Key: key, Holder: c.self, Release: true, Epoch: c.EpochHex()}); err != nil {
		c.reportFailure(p, err)
	}
}

// FetchArtifact pulls one rendered artifact from peer with breaker
// gating and integrity verification. cfgParam is the encoded config
// (EncodeConfigParam) so the peer can compute a run it has never seen.
// The request carries this replica's ring epoch; a *NotAuthorityError
// return means the responder's ring disagrees that it should compute —
// the caller re-resolves the authority and retries rather than treating
// the peer as failed. hint marks the fill as a hint probe (see
// HintHeader): the responder serves only bytes it already holds.
func (c *Cluster) FetchArtifact(ctx context.Context, peer, fp, artifact, format, cfgParam string, hint bool) ([]byte, error) {
	p := c.peerStateFor(peer)
	if !p.allow(c.now()) {
		c.peerFills.With("error").Inc()
		return nil, fmt.Errorf("cluster: circuit open for peer %s", peer)
	}
	fctx, cancel := context.WithTimeout(ctx, fillTimeout)
	defer cancel()
	body, err := c.client.fetchArtifact(fctx, peer, fp, artifact, format, cfgParam, c.EpochHex(), hint)
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
