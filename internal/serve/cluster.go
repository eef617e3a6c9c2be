package serve

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"repro/internal/cluster"
	"repro/internal/core"
)

// The serve side of the peer protocol (see internal/cluster for the
// client half and the package doc). Three data-plane endpoints plus a
// status probe, all secret-authenticated, all bypassing the client
// admission gates: replicas coordinating a run must not be rejected by
// the capacity limits that protect the cluster from clients. Each has
// its own bound instead — the artifact endpoint joins the runner's
// singleflight, the stage endpoint is capped by peerStageGate, and the
// lease endpoint is a map operation.

// peerAuth rejects peer requests that do not carry the shared cluster
// secret. Comparison is constant-time; an empty configured secret
// disables the check (trusted localhost rings, tests).
func (s *Server) peerAuth(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if secret := s.cluster.Secret(); secret != "" {
			got := r.Header.Get(cluster.SecretHeader)
			if subtle.ConstantTimeCompare([]byte(got), []byte(secret)) != 1 {
				s.writeError(w, http.StatusUnauthorized, "missing or invalid peer secret")
				return
			}
		}
		h(w, r)
	}
}

// handlePeerArtifact serves GET /v1/peer/artifact/{fp}/{artifact}: a
// peer cache fill. The request carries the full config (base64url JSON)
// because a fingerprint names artifact bytes but cannot reconstruct the
// configuration that produces them — so this replica can compute a run
// it has never seen. The declared fingerprint must match the config's
// own: a mismatch means the requester and this replica would disagree
// about what the bytes are called, which is never recoverable. The
// artifact, its format and the work caps POST /v1/run enforces are all
// checked before anything is looked up or computed.
func (s *Server) handlePeerArtifact(w http.ResponseWriter, r *http.Request) {
	fp := r.PathValue("fp")
	id := r.PathValue("artifact")
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "json"
	}
	exp, err := core.Lookup(id)
	if err != nil {
		s.writeError(w, http.StatusNotFound, err.Error())
		return
	}
	if err := checkFormat(exp, format); err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	encoded := r.URL.Query().Get(cluster.ConfigParam)
	if encoded == "" {
		s.writeError(w, http.StatusBadRequest, "missing config parameter")
		return
	}
	cfg, err := cluster.DecodeConfigParam(encoded)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := cfg.Validate(); err != nil {
		s.writeJSON(w, http.StatusUnprocessableEntity, apiError{Error: err.Error()})
		return
	}
	if err := s.checkCaps(cfg); err != nil {
		s.writeJSON(w, http.StatusUnprocessableEntity, apiError{Error: err.Error()})
		return
	}
	if got := cfg.Fingerprint(); got != fp {
		s.writeJSON(w, http.StatusUnprocessableEntity, apiError{
			Error: fmt.Sprintf("config fingerprints to %s, path says %s", got, fp)})
		return
	}
	s.cluster.CheckEpoch("fill", r.Header.Get(cluster.EpochHeader))
	// Bodies are cached by render key, which this replica holds for the
	// base config and for retained runs; a run it cannot name yet is a
	// miss until it runs.
	keys, named := s.renderKeys(fp)
	key := cacheKey{artifact: id, format: format, content: keys[id]}
	if named {
		if e, hit := s.cacheGet(key); hit {
			s.writeCached(w, r, e)
			return
		}
	}
	// A cache miss means serving this fill would compute the run. Bytes
	// this replica already holds (a retained or in-flight run) are served
	// to anyone — content addressing makes them interchangeable — but a
	// *fresh* compute is the authority's job.
	//
	// A hint probe (see cluster.HintHeader) never computes: the
	// requester is an authority that cold-started after a handover and
	// is only asking who already has the run. Answering 404 here is the
	// signal to try the next peer — computing would defeat the probe's
	// purpose and re-hinting would recurse.
	hinted := r.Header.Get(cluster.HintHeader) != ""
	if hinted && !s.runner.knows(fp) {
		s.writeError(w, http.StatusNotFound, "no retained run for this fingerprint")
		return
	}
	// If this replica's ring says someone else is the authority, the
	// requester resolved against a stale ring (a membership change
	// straddled the fill): answer 409 naming who this replica believes
	// the authority is, so the requester re-resolves instead of fanning
	// duplicate computes across a handover.
	if auth := s.cluster.Authority(fp); !hinted && auth != s.cluster.Self() && !s.runner.knows(fp) {
		s.writeJSON(w, http.StatusConflict, peerRedirect{
			Error:     "not the authority for this fingerprint",
			Authority: auth,
			Epoch:     s.cluster.EpochHex(),
		})
		return
	}
	ctx, cancel := s.runContext(r)
	defer cancel()
	// The symmetric cold-start: this replica agrees it is the authority
	// but has never computed the run — a non-hinted fill arriving here
	// would recompute bytes some peer may still hold. Probe the ring
	// first; only when nobody has them is the compute genuinely fresh.
	// (A run it cannot name — another base config — computes directly.)
	if !hinted && !s.runner.knows(fp) && named {
		if e, ok := s.hintFill(ctx, fp, key); ok {
			s.writeCached(w, r, e)
			return
		}
	}
	run, err := s.runner.artifacts(ctx, fp, cfg)
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	body, err := renderArtifact(run.arts, id, format)
	if err != nil {
		s.writeError(w, http.StatusNotFound, err.Error())
		return
	}
	key.content = run.keys[id]
	s.writeCached(w, r, s.cachePut(fp, key, body))
}

// handlePeerLease serves POST /v1/peer/lease: this replica acting as
// the lease authority for keys it owns (or has taken over). Grant,
// denial-naming-the-holder, renewal, and release are all one lease
// table operation; correctness never depends on the answer — a
// duplicate compute produces identical bytes — so no persistence or
// consensus is needed behind it.
func (s *Server) handlePeerLease(w http.ResponseWriter, r *http.Request) {
	var lr cluster.LeaseRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&lr); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad lease request: "+err.Error())
		return
	}
	if lr.Key == "" || lr.Holder == "" {
		s.writeError(w, http.StatusBadRequest, "lease request needs key and holder")
		return
	}
	s.cluster.CheckEpoch("lease", lr.Epoch)
	lt := s.cluster.Leases()
	if lr.Release {
		lt.Release(lr.Key, lr.Holder)
		s.writeJSON(w, http.StatusOK, cluster.LeaseResponse{Holder: lr.Holder, Epoch: s.cluster.EpochHex()})
		return
	}
	granted, holder, ttl := lt.Acquire(lr.Key, lr.Holder)
	s.writeJSON(w, http.StatusOK, cluster.LeaseResponse{
		Granted: granted, Holder: holder, TTLMs: ttl.Milliseconds(), Epoch: s.cluster.EpochHex()})
}

// handlePeerStage serves POST /v1/peer/stage: run one stolen stage
// through core.RunStage (from and into this replica's stage cache) and
// answer with its payload under its SHA-256 as the ETag. At
// peerStageLimit concurrent stages the answer is an immediate 503 — the
// thief computes locally rather than both sides waiting on a queue.
func (s *Server) handlePeerStage(w http.ResponseWriter, r *http.Request) {
	select {
	case s.peerStageGate <- struct{}{}:
		defer func() { <-s.peerStageGate }()
	default:
		s.retryLater(w, http.StatusServiceUnavailable, "stage capacity exhausted")
		return
	}
	var req cluster.StageRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad stage request: "+err.Error())
		return
	}
	// Stage steals are epoch-advisory: a steal that straddled a
	// membership change still produces the right bytes (the ETag proves
	// it), so a mismatch is metered, never refused.
	s.cluster.CheckEpoch("stage", req.Epoch)
	// The wire config arrives with the worker count stripped (a local
	// concern, invariant to the bytes and absent from stage keys);
	// apply this replica's own. A Table key an older peer still sends
	// decodes into nothing: encoding/json skips unknown fields.
	cfg := req.Config
	cfg.Workers = s.baseCfg.Workers
	payload, err := core.RunStage(r.Context(), cfg, req.Stage, s.stageCache)
	if err != nil {
		s.writeJSON(w, http.StatusUnprocessableEntity, apiError{Error: err.Error()})
		return
	}
	w.Header().Set("ETag", etagOf(sha256.Sum256(payload)))
	w.Header().Set("Content-Type", "application/octet-stream")
	if _, err := w.Write(payload); err != nil {
		s.writeErrors.Inc()
	}
}

// peerRedirect is the 409 body a non-authority replica answers a fill
// with: who it believes the authority is, under which ring epoch.
type peerRedirect struct {
	Error     string `json:"error"`
	Authority string `json:"authority"`
	Epoch     string `json:"epoch"`
}

// handlePeerProbe serves POST /v1/peer/probe: the direct SWIM probe.
// The ack carries this replica's full membership view, which is how
// gossip disseminates — every probe in either direction merges states.
func (s *Server) handlePeerProbe(w http.ResponseWriter, r *http.Request) {
	var req cluster.ProbeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<18)).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad probe request: "+err.Error())
		return
	}
	s.writeJSON(w, http.StatusOK, s.cluster.HandleProbe(req))
}

// handlePeerProbeIndirect serves POST /v1/peer/probe-indirect: probe a
// third member on the requester's behalf, so one severed link does not
// read as a dead peer.
func (s *Server) handlePeerProbeIndirect(w http.ResponseWriter, r *http.Request) {
	var req cluster.IndirectProbeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<18)).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad indirect probe request: "+err.Error())
		return
	}
	if req.Target == "" {
		s.writeError(w, http.StatusBadRequest, "indirect probe needs a target")
		return
	}
	s.writeJSON(w, http.StatusOK, s.cluster.HandleIndirectProbe(r.Context(), req))
}

// handlePeerJoin serves POST /v1/peer/join: a joining replica announces
// itself to any seed and receives the full membership snapshot. From
// there gossip keeps it current; the seed is only a bootstrap.
func (s *Server) handlePeerJoin(w http.ResponseWriter, r *http.Request) {
	var req cluster.JoinRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad join request: "+err.Error())
		return
	}
	if req.From == "" {
		s.writeError(w, http.StatusBadRequest, "join needs a from identity")
		return
	}
	s.writeJSON(w, http.StatusOK, s.cluster.HandleJoin(req))
}

// peerStatusBody is the GET /v1/peer/status response: this replica's
// view of the ring, for operators and for peers' dashboards.
type peerStatusBody struct {
	Self          string                 `json:"self"`
	Epoch         string                 `json:"epoch"`
	Members       []string               `json:"members"`
	MembersDetail []cluster.MemberUpdate `json:"membersDetail"`
	QuorumHealthy int                    `json:"quorumHealthy"`
	QuorumTotal   int                    `json:"quorumTotal"`
	Leases        int                    `json:"leases"`
	Peers         []cluster.PeerHealth   `json:"peers"`
}

func (s *Server) handlePeerStatus(w http.ResponseWriter, r *http.Request) {
	healthy, total := s.cluster.Quorum()
	s.writeJSON(w, http.StatusOK, peerStatusBody{
		Self:          s.cluster.Self(),
		Epoch:         s.cluster.EpochHex(),
		Members:       s.cluster.Members(),
		MembersDetail: s.cluster.MemberUpdates(),
		QuorumHealthy: healthy,
		QuorumTotal:   total,
		Leases:        s.cluster.Leases().Len(),
		Peers:         s.cluster.PeerHealth(),
	})
}

// clusterRender produces one base-config rendered artifact under the
// cluster-wide singleflight protocol. The ring concentrates each
// fingerprint's compute on one replica — the owner while it lives, the
// takeover authority (next healthy peer in ring order) after it dies:
//
//  1. authority is a peer: fill from it. It computes on demand, so the
//     fill blocks until the bytes exist — concurrent fills from every
//     replica collapse onto its one execution, and a replica asking
//     after the fact gets the cached bytes without anyone recomputing.
//     A 409 redirect means the rings disagree (a membership change
//     straddled the fill): re-resolve against the responder's named
//     authority and retry, bounded, instead of computing a duplicate.
//  2. authority is self, or the fill failed: race for the compute
//     lease. The winner computes; a loser fills from whoever holds it.
//  3. every peer path failed: compute locally. The determinism contract
//     makes this safe — a duplicate compute costs CPU, never bytes —
//     so faults degrade latency and cache efficiency only.
func (s *Server) clusterRender(ctx context.Context, fp string, key cacheKey) (cacheEntry, error) {
	// Up to two authority handovers are followed; past that the rings
	// are churning faster than fills resolve, and the lease race below
	// (then local compute) is the bounded-latency way out.
	auth := s.cluster.Authority(fp)
	for hop := 0; hop < 3 && auth != s.cluster.Self(); hop++ {
		e, err := s.peerFill(ctx, auth, fp, key)
		if err == nil {
			return e, nil
		}
		var na *cluster.NotAuthorityError
		if !errors.As(err, &na) || na.Authority == "" || na.Authority == auth {
			break
		}
		auth = na.Authority
	}
	if auth == s.cluster.Self() && !s.runner.knows(fp) {
		// Authority cold-start: probe the ring for a peer that already
		// holds the bytes before racing for the compute lease.
		if e, ok := s.hintFill(ctx, fp, key); ok {
			return e, nil
		}
	}
	granted, holder, _ := s.cluster.AcquireLease(ctx, fp)
	if granted {
		// Release promptly so a holder crash is the only case that costs
		// a TTL of blocked takeover; the release must not be lost to the
		// request's own cancellation.
		defer s.cluster.ReleaseLease(context.Background(), fp)
		return s.localRender(ctx, fp, key)
	}
	if holder != "" && holder != s.cluster.Self() {
		if e, err := s.peerFill(ctx, holder, fp, key); err == nil {
			return e, nil
		}
	}
	return s.localRender(ctx, fp, key)
}

// peerFill fetches run fp's rendered artifact from peer (integrity-
// checked against its ETag by the cluster client) and installs it in
// the local cache under key — same bytes, same ETag, as if rendered
// here.
func (s *Server) peerFill(ctx context.Context, peer, fp string, key cacheKey) (cacheEntry, error) {
	body, err := s.cluster.FetchArtifact(ctx, peer, fp, key.artifact, key.format, s.baseCfgParam, false)
	if err != nil {
		return cacheEntry{}, err
	}
	return s.cachePut(fp, key, body), nil
}

// hintFill handles the authority's cold-start after a handover: this
// replica owns key's fingerprint but has never computed its run — it
// joined the ring, or a heal or death moved the keyspace. Before
// paying for a compute, walk the ring sequence (the takeover order,
// which leads with whoever held the authority before the handover)
// asking each peer whether it already holds the bytes or the run. The
// asks are hint-marked, so a peer answers only from what it has —
// never computes, never re-hints — which keeps the walk loop-free and
// means its total cost is bounded by ring size, not by pipeline runs.
func (s *Server) hintFill(ctx context.Context, fp string, key cacheKey) (cacheEntry, bool) {
	for _, peer := range s.cluster.Sequence(fp) {
		if peer == s.cluster.Self() {
			continue
		}
		body, err := s.cluster.FetchArtifact(ctx, peer, fp, key.artifact, key.format, s.baseCfgParam, true)
		if err != nil {
			continue
		}
		return s.cachePut(fp, key, body), true
	}
	return cacheEntry{}, false
}

// localRender runs (or joins) the base run fp here and renders the
// requested artifact.
func (s *Server) localRender(ctx context.Context, fp string, key cacheKey) (cacheEntry, error) {
	run, err := s.runner.artifacts(ctx, fp, s.baseCfg)
	if err != nil {
		return cacheEntry{}, err
	}
	body, err := renderArtifact(run.arts, key.artifact, key.format)
	if err != nil {
		return cacheEntry{}, err
	}
	return s.cachePut(fp, key, body), nil
}
