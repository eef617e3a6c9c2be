package cluster

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// Steal is the work-stealing dispatcher, installed as
// core.RunOptions.Steal: each stealable stage a run must compute is
// shipped as (cfg, stage) to the least-loaded healthy peer, or run
// through local when self is least loaded. The run restores a stolen
// payload exactly like a stage-cache hit, and every remote fault
// degrades to the local body, so distribution can only ever change
// latency, not bytes. Which stages are stealable is core's business;
// this layer never looks inside a stage or its payload.
func (c *Cluster) Steal(ctx context.Context, cfg core.Config, stage string, local func() error) ([]byte, error) {
	target := c.stealTarget()
	if target == nil {
		return nil, c.runLocal(local)
	}
	target.inflight.Add(1)
	start := c.now()
	payload, err := c.remoteStage(ctx, target.name, cfg, stage)
	target.inflight.Add(-1)
	if err == nil {
		c.reportSuccess(target)
		c.steals.With("remote").Inc()
		c.stealSeconds.Observe(c.now().Sub(start).Seconds())
		return payload, nil
	}
	// Degraded path: the steal failed (transport, auth, integrity, or a
	// peer-side error). Note the failure on the peer's breaker and
	// compute locally — identical bytes, only later.
	c.reportFailure(target, err)
	c.steals.With("fallback").Inc()
	rerr := &RemoteStageError{Peer: target.name, Stage: stage, Attempt: 1, Err: err}
	if lerr := c.runLocal(local); lerr != nil {
		return nil, fmt.Errorf("local recompute failed: %w; after remote failure: %w", lerr, rerr)
	}
	return nil, nil
}

// runLocal runs the stage body in-process, tracking self load so the
// target choice sees local work too.
func (c *Cluster) runLocal(local func() error) error {
	c.selfInflight.Add(1)
	defer c.selfInflight.Add(-1)
	c.steals.With("local").Inc()
	return local()
}

// remoteStage ships one stage to peer. The worker count is stripped
// from the wire config: it is a local concern (artifact bytes are
// invariant to it, pinned by the worker-count equivalence tests). The
// thief's ring epoch rides along so a steal that straddles a membership
// change is visible on the serving side's mismatch counter.
func (c *Cluster) remoteStage(ctx context.Context, peer string, cfg core.Config, stage string) ([]byte, error) {
	wire := cfg
	wire.Workers = 0
	sctx, cancel := context.WithTimeout(ctx, fillTimeout)
	defer cancel()
	return c.client.postStage(sctx, peer, StageRequest{Config: wire, Stage: stage, Epoch: c.EpochHex()})
}

// stealTarget picks where the next stage should run: the candidate
// with the fewest outstanding stages among self and every alive,
// breaker-admitted member. Nil means "run it locally" — either self is
// least loaded or no peer is usable. Ties prefer self (no network is
// always cheaper than some network). The member walk is the live ring
// view, so a replica that joined five seconds ago is already a steal
// candidate and a suspect is already excluded.
func (c *Cluster) stealTarget() *peerState {
	var best *peerState
	bestLoad := c.selfInflight.Load()
	for _, name := range c.Members() {
		if name == c.self || !c.healthyPeer(name) {
			continue
		}
		p := c.peerStateFor(name)
		if !p.allow(c.now()) {
			continue
		}
		if load := p.inflight.Load(); load < bestLoad {
			best, bestLoad = p, load
		}
	}
	return best
}
