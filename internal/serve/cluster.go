package serve

import (
	"context"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"net/http"
	"slices"

	"repro/internal/cluster"
	"repro/internal/core"
)

// The serve side of the peer protocol (see internal/cluster for the
// client half and the package doc). Two data-plane endpoints and two
// gossip endpoints, all secret-authenticated, all bypassing the client
// admission gates: replicas coordinating a run must not be rejected by
// the capacity limits that protect the cluster from clients. Each has
// its own bound instead — the artifact endpoint serves only the base
// run and joins the runner's singleflight, the stage endpoint is capped
// by peerStageGate, and the gossip bodies are size-capped.

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
// peer cache fill of this replica's base run. Requesters fill only
// their own base run, and a ring serves one base config, so the
// fingerprint alone names the config to compute; any other fingerprint
// is a 404 (a ring whose base configs differ renders each locally). The
// artifact, its format and the fingerprint are all checked before
// anything is looked up or computed.
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
	if fp != s.baseFP {
		s.writeError(w, http.StatusNotFound, "not this replica's base run")
		return
	}
	s.cluster.CheckEpoch("fill", r.Header.Get(cluster.EpochHeader))
	key := cacheKey{artifact: id, format: format, content: s.baseKeys[id]}
	if e, hit := s.cacheGet(key); hit {
		s.writeCached(w, r, e)
		return
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
	ctx, cancel := s.runContext(r)
	defer cancel()
	// A takeover fill (see cluster.TakeoverHeader) computes here
	// directly: its requester could not reach the authority, so a
	// redirect would send it back there, and a hint probe could wait on
	// that same authority for up to the fill timeout.
	plain := !hinted && r.Header.Get(cluster.TakeoverHeader) == ""
	if plain && !s.runner.knows(fp) {
		// If this replica's ring says someone else is the authority, the
		// requester resolved against a stale ring (a membership change
		// straddled the fill): answer 409 naming who this replica
		// believes the authority is, so the requester re-resolves
		// instead of fanning duplicate computes across a handover.
		if auth := s.cluster.Authority(fp); auth != s.cluster.Self() {
			s.writeJSON(w, http.StatusConflict, peerRedirect{
				Error:     "not the authority for this fingerprint",
				Authority: auth,
				Epoch:     s.cluster.EpochHex(),
			})
			return
		}
		// The symmetric cold-start: this replica agrees it is the
		// authority but has never computed the run — a fill arriving
		// here would recompute bytes some peer may still hold. Probe the
		// ring first; only when nobody has them is the compute
		// genuinely fresh.
		if e, ok := s.hintFill(ctx, fp, key); ok {
			s.writeCached(w, r, e)
			return
		}
	}
	run, err := s.runner.artifacts(ctx, fp, s.baseCfg)
	if err != nil {
		s.writeRunError(w, err)
		return
	}
	body, err := renderArtifact(run.arts, id, format)
	if err != nil {
		s.writeError(w, http.StatusNotFound, err.Error())
		return
	}
	s.writeCached(w, r, s.cachePut(fp, key, body))
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

// handlePeerProbe serves POST /v1/peer/probe: the direct SWIM probe,
// and a joining replica's first contact with its seed. The ack carries
// this replica's full membership view, which is how gossip disseminates
// — every probe in either direction merges states.
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

// clusterRender produces one base-config rendered artifact under the
// cluster-wide singleflight. The ring concentrates each fingerprint's
// compute on one replica: its authority, the first live member of its
// takeover order.
//
//  1. Fill from the authority. It computes on demand, so the fill
//     blocks until the bytes exist — concurrent fills from every
//     replica collapse onto its one execution, and a replica asking
//     after the fact gets the cached bytes. A 409 redirect means the
//     rings disagree (a membership change straddled the fill):
//     re-resolve against the responder's named authority and retry,
//     bounded, instead of computing a duplicate.
//  2. Authority is self: probe the ring for a peer that already holds
//     the run (a cold start after a handover), then compute here.
//  3. The authority could not be reached (dead before any prober
//     noticed, partitioned, breaker open): walk the takeover order,
//     skipping the peers whose fills just failed, and send each a
//     takeover fill, which it computes under its own singleflight.
//     Every replica that lost the same authority lands on the same
//     first live member, so their fills meet in one runner. A walk
//     that reaches self computes here.
//  4. Every peer path failed: compute locally. The determinism contract
//     makes this safe — a duplicate compute costs CPU, never bytes —
//     so faults degrade latency and cache efficiency only.
func (s *Server) clusterRender(ctx context.Context, fp string, key cacheKey) (cacheEntry, error) {
	self := s.cluster.Self()
	// Up to two authority handovers are followed; past that the rings
	// are churning faster than fills resolve, and the takeover walk
	// (then local compute) is the bounded-latency way out.
	var failed []string
	auth := s.cluster.Authority(fp)
	for hop := 0; hop < 3 && auth != self; hop++ {
		e, err := s.peerFill(ctx, auth, fp, key, cluster.FillPlain)
		if err == nil {
			return e, nil
		}
		var na *cluster.NotAuthorityError
		if !errors.As(err, &na) {
			failed = append(failed, auth)
			break
		}
		if na.Authority == "" || na.Authority == auth {
			break
		}
		auth = na.Authority
	}
	if auth == self {
		if !s.runner.knows(fp) {
			if e, ok := s.hintFill(ctx, fp, key); ok {
				return e, nil
			}
		}
		return s.localRender(ctx, fp, key)
	}
	for _, peer := range s.cluster.Takeover(fp) {
		if peer == self {
			break
		}
		if slices.Contains(failed, peer) {
			continue
		}
		if e, err := s.peerFill(ctx, peer, fp, key, cluster.FillTakeover); err == nil {
			return e, nil
		}
	}
	return s.localRender(ctx, fp, key)
}

// peerFill fetches run fp's rendered artifact from peer in the given
// fill mode (integrity-checked against its ETag by the cluster client)
// and installs it in the local cache under key — same bytes, same
// ETag, as if rendered here.
func (s *Server) peerFill(ctx context.Context, peer, fp string, key cacheKey, mode cluster.FillMode) (cacheEntry, error) {
	body, err := s.cluster.FetchArtifact(ctx, peer, fp, key.artifact, key.format, mode)
	if err != nil {
		return cacheEntry{}, err
	}
	return s.cachePut(fp, key, body), nil
}

// hintFill handles the authority's cold-start after a handover: this
// replica owns key's fingerprint but has never computed its run — it
// joined the ring, or a heal or death moved the keyspace. Before
// paying for a compute, walk the ring sequence (owner first, which
// leads with whoever held the authority before the handover, suspects
// included) asking each peer whether it already holds the bytes or the run. The
// asks are hint-marked, so a peer answers only from what it has —
// never computes, never re-hints — which keeps the walk loop-free and
// means its total cost is bounded by ring size, not by pipeline runs.
func (s *Server) hintFill(ctx context.Context, fp string, key cacheKey) (cacheEntry, bool) {
	for _, peer := range s.cluster.Sequence(fp) {
		if peer == s.cluster.Self() {
			continue
		}
		if e, err := s.peerFill(ctx, peer, fp, key, cluster.FillHint); err == nil {
			return e, true
		}
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
