package cluster

import (
	"context"
)

// The gossip wire protocol: two verbs layered on the existing
// authenticated peer endpoints, each carrying the sender's full
// membership snapshot as piggyback. At the ring sizes this system
// targets (a handful of replicas serving one paper's artifacts) full
// state on every message is cheaper than the classic SWIM update queue
// and converges in one round trip, so there is nothing to tune.
//
//	POST /v1/peer/probe           direct liveness probe + gossip exchange
//	POST /v1/peer/probe-indirect  "probe the target for me" relay
//
// A joining replica needs no verb of its own: it probes a seed, and the
// ack hands it the seed's full view.

// ProbeRequest is a direct probe: "I am alive at this incarnation, and
// here is everything I believe." The receiver merges, notes firsthand
// contact from the sender, and acks with a ProbeRequest of its own — so
// one message is both the probe and its ack.
type ProbeRequest struct {
	From        string         `json:"from"`
	Incarnation uint64         `json:"incarnation"`
	Members     []MemberUpdate `json:"members,omitempty"`
}

// IndirectProbeRequest asks a relay to probe Target on the sender's
// behalf — the SWIM trick that distinguishes "the target is down" from
// "my link to the target is down".
type IndirectProbeRequest struct {
	From        string         `json:"from"`
	Incarnation uint64         `json:"incarnation"`
	Target      string         `json:"target"`
	Members     []MemberUpdate `json:"members,omitempty"`
}

// IndirectProbeAck reports the relay's attempt: TargetOK is whether the
// relay reached the target directly just now.
type IndirectProbeAck struct {
	TargetOK bool           `json:"target_ok"`
	Members  []MemberUpdate `json:"members,omitempty"`
}

// probeBody builds this replica's outbound probe, which is also its
// ack.
func (c *Cluster) probeBody() ProbeRequest {
	return ProbeRequest{
		From:        c.self,
		Incarnation: c.members.SelfIncarnation(),
		Members:     c.members.Snapshot(),
	}
}

// HandleProbe is the serve-side logic for POST /v1/peer/probe: record
// firsthand contact from the sender, merge its gossip, answer with our
// own. Pure state exchange — it can never fail.
func (c *Cluster) HandleProbe(req ProbeRequest) ProbeRequest {
	c.gossipRecv.With("probe").Inc()
	first := c.members.NoteFirsthand(req.From, req.Incarnation)
	merged := c.members.Merge(req.Members)
	if first || merged {
		c.membershipChanged()
	}
	return c.probeBody()
}

// HandleIndirectProbe is the serve-side logic for POST
// /v1/peer/probe-indirect: merge the requester's gossip, then probe the
// target directly on its behalf within one probe timeout.
func (c *Cluster) HandleIndirectProbe(ctx context.Context, req IndirectProbeRequest) IndirectProbeAck {
	c.gossipRecv.With("probe_indirect").Inc()
	first := c.members.NoteFirsthand(req.From, req.Incarnation)
	merged := c.members.Merge(req.Members)
	ok := false
	if validPeer(req.Target) && req.Target != c.self {
		pctx, cancel := context.WithTimeout(ctx, c.opts.ProbeTimeout)
		ack, err := c.client.probe(pctx, req.Target, c.probeBody())
		cancel()
		c.gossipSent.With("probe").Inc()
		if err == nil {
			ok = true
			if c.members.NoteFirsthand(req.Target, ack.Incarnation) {
				merged = true
			}
			if c.members.Merge(ack.Members) {
				merged = true
			}
		}
	}
	if first || merged {
		c.membershipChanged()
	}
	return IndirectProbeAck{
		TargetOK: ok,
		Members:  c.members.Snapshot(),
	}
}
