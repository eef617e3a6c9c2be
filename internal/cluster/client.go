package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/core"
	"repro/internal/table"
)

// The peer protocol's client half. Four verbs, all under /v1/peer/ and
// all authenticated with the shared secret header — two on the data
// plane:
//
//	GET  /v1/peer/artifact/{fp}/{artifact}?format=   cache fill of the base run
//	POST /v1/peer/stage                              stage steal
//
// and two on the membership plane:
//
//	POST /v1/peer/probe           liveness probe + gossip; also the join
//	POST /v1/peer/probe-indirect  probe a third peer on my behalf
//
// Every probe and ack piggybacks the sender's full membership view, so
// rumor needs no channel of its own; data-plane requests carry the
// requester's ring epoch so a fill or steal that straddles a membership
// change is detected, not trusted. The ring's status view is /readyz.
//
// Every byte-carrying response is integrity-checked on this side: an
// artifact body or a stage payload must hash to its own ETag (the
// determinism contract makes the ETag a content address, so the check
// needs no extra protocol). A peer that sends damaged bytes is
// indistinguishable from a peer that sent none — callers fall back, and
// corruption can never reach a client. Every read is bounded: a data
// verb takes at most maxPayloadBytes, a JSON verb at most maxJSONBytes.

// SecretHeader carries the shared cluster secret on peer requests.
const SecretHeader = "X-Rcpt-Peer-Secret"

// EpochHeader carries the requester's ring epoch (hex) on artifact
// fills; a steal carries it as the body's epoch field. The responder
// meters a disagreement, a 409 redirect names the responder's own epoch,
// and /readyz shows it. Epoch disagreement alone never refuses bytes
// (they are content-addressed).
const EpochHeader = "X-Rcpt-Ring-Epoch"

// HintHeader marks an artifact fill as a *hint probe*: the requester
// believes it is the fingerprint's authority after a handover and is
// asking peers whether any of them already holds the run. A responder
// to a hinted fill serves only what it has — cached bytes or a
// retained run — and never computes, never re-hints. That asymmetry is
// the loop-breaker: two replicas that each believe they are the
// authority (a ring-view skew mid-handover) can probe each other
// without the probes cascading into computes or recursing.
const HintHeader = "X-Rcpt-Fill-Hint"

// TakeoverHeader marks an artifact fill as a *takeover fill*: the
// requester's fill to the fingerprint's authority failed, and it walked
// the takeover order (Cluster.Takeover) to this responder. The
// responder computes the run under its own singleflight even when its
// ring names another authority, and skips the hint probe, so a
// takeover never waits on the unreachable authority. Every replica
// that lost the same authority walks to the same first live member,
// whose singleflight collapses their fills onto one compute.
const TakeoverHeader = "X-Rcpt-Fill-Takeover"

// FillMode is what an artifact fill lets the responder do to answer.
type FillMode uint8

const (
	// FillPlain: an authority fill. A cold responder whose ring names
	// another authority answers 409; a cold authority probes its peers
	// for the bytes, then computes.
	FillPlain FillMode = iota
	// FillHint: serve only bytes already held (see HintHeader).
	FillHint
	// FillTakeover: compute here, whoever the authority is (see
	// TakeoverHeader).
	FillTakeover
)

// peerClient issues peer-protocol requests.
type peerClient struct {
	hc     *http.Client
	secret string
}

// StageRequest is the stage-steal endpoint's JSON body: which stage of
// which config to compute. Epoch carries the thief's ring epoch for the
// same observability as fills.
type StageRequest struct {
	Config core.Config `json:"config"`
	Stage  string      `json:"stage"`
	Epoch  string      `json:"epoch,omitempty"`
}

// Response read caps. maxPayloadBytes bounds the two data verbs; it is
// the stage store's default MaxEntryBytes, far above any artifact or
// stage payload the pipeline produces. maxJSONBytes bounds both gossip
// verbs.
const (
	maxPayloadBytes = 64 << 20
	maxJSONBytes    = 1 << 20
)

// fetchArtifact GETs one rendered artifact of the responder's base run
// fp from peer, verified against its ETag (fetchPayload). epochHex
// rides along so the responder can detect a fill that straddled a ring
// change; a 409 comes back as *NotAuthorityError with the responder's
// view attached, and the caller re-resolves. mode sets the hint or
// takeover header.
func (cl *peerClient) fetchArtifact(ctx context.Context, peer, fp, artifact, format, epochHex string, mode FillMode) ([]byte, error) {
	u := fmt.Sprintf("%s/v1/peer/artifact/%s/%s?format=%s",
		peer, url.PathEscape(fp), url.PathEscape(artifact), url.QueryEscape(format))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	if epochHex != "" {
		req.Header.Set(EpochHeader, epochHex)
	}
	switch mode {
	case FillHint:
		req.Header.Set(HintHeader, "1")
	case FillTakeover:
		req.Header.Set(TakeoverHeader, "1")
	}
	cl.auth(req)
	return cl.fetchPayload(req, peer, "artifact body")
}

// postStage asks peer to compute one stage and returns its verified
// payload.
func (cl *peerClient) postStage(ctx context.Context, peer string, sr StageRequest) ([]byte, error) {
	req, err := cl.newPost(ctx, peer, "/v1/peer/stage", sr)
	if err != nil {
		return nil, err
	}
	return cl.fetchPayload(req, peer, "stage payload")
}

// fetchPayload is the one exchange of both data verbs, artifact fill
// and stage steal: send req, and return a 200 body of at most
// maxPayloadBytes that hashes to its ETag, the quoted hex SHA-256 of
// the bytes. A mismatch is a *table.IntegrityError; a 409 comes back as
// *NotAuthorityError with the responder's view attached.
func (cl *peerClient) fetchPayload(req *http.Request, peer, what string) ([]byte, error) {
	resp, err := cl.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp)
	if resp.StatusCode == http.StatusConflict {
		var na struct {
			Authority string `json:"authority"`
			Epoch     string `json:"epoch"`
		}
		_ = json.NewDecoder(io.LimitReader(resp.Body, 1<<12)).Decode(&na)
		return nil, &NotAuthorityError{Peer: peer, Authority: na.Authority, Epoch: na.Epoch}
	}
	if resp.StatusCode != http.StatusOK {
		return nil, peerErr(peer, resp)
	}
	body, err := readBody(resp, maxPayloadBytes)
	if err != nil {
		return nil, fmt.Errorf("cluster: reading %s from %s: %w", what, peer, err)
	}
	sum := sha256.Sum256(body)
	if want := `"` + hex.EncodeToString(sum[:]) + `"`; resp.Header.Get("ETag") != want {
		return nil, &table.IntegrityError{Reason: fmt.Sprintf("%s from %s does not hash to its ETag", what, peer)}
	}
	return body, nil
}

// postJSON POSTs body to peer+path and decodes the 200 response, of at
// most maxJSONBytes, into out — the shared shape of both gossip verbs.
func (cl *peerClient) postJSON(ctx context.Context, peer, path string, body, out any) error {
	req, err := cl.newPost(ctx, peer, path, body)
	if err != nil {
		return err
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return peerErr(peer, resp)
	}
	raw, err := readBody(resp, maxJSONBytes)
	if err != nil {
		return fmt.Errorf("cluster: reading response from %s: %w", peer, err)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return fmt.Errorf("cluster: response from %s%s: %w", peer, path, err)
	}
	return nil
}

// newPost builds an authenticated JSON POST of body to peer+path.
func (cl *peerClient) newPost(ctx context.Context, peer, path string, body any) (*http.Request, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+path, bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	cl.auth(req)
	return req, nil
}

// readBody reads a response body of at most limit bytes. A longer one
// is an error, refused unread when its length is declared.
func readBody(resp *http.Response, limit int64) ([]byte, error) {
	if resp.ContentLength > limit {
		return nil, fmt.Errorf("body of %d bytes exceeds the %d-byte cap", resp.ContentLength, limit)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(body)) > limit {
		return nil, fmt.Errorf("body exceeds the %d-byte cap", limit)
	}
	return body, nil
}

// probe sends a direct gossip probe; the ack is the peer's own probe
// body.
func (cl *peerClient) probe(ctx context.Context, peer string, pr ProbeRequest) (*ProbeRequest, error) {
	var ack ProbeRequest
	if err := cl.postJSON(ctx, peer, "/v1/peer/probe", pr, &ack); err != nil {
		return nil, err
	}
	return &ack, nil
}

// indirectProbe asks relay to probe a target on our behalf.
func (cl *peerClient) indirectProbe(ctx context.Context, relay string, pr IndirectProbeRequest) (*IndirectProbeAck, error) {
	var ack IndirectProbeAck
	if err := cl.postJSON(ctx, relay, "/v1/peer/probe-indirect", pr, &ack); err != nil {
		return nil, err
	}
	return &ack, nil
}

func (cl *peerClient) auth(req *http.Request) {
	if cl.secret != "" {
		req.Header.Set(SecretHeader, cl.secret)
	}
}

// peerErr shapes a non-200 peer response, keeping a bounded prefix of
// the body for diagnostics.
func peerErr(peer string, resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
	return &PeerError{Peer: peer, Status: resp.StatusCode, Body: string(bytes.TrimSpace(b))}
}

// drainClose drains and closes a response body so the transport can
// reuse the connection; close errors on a fully read body carry no
// information worth propagating.
func drainClose(resp *http.Response) {
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	_ = resp.Body.Close()
}

// newHTTPClient builds the default peer transport: modest timeouts and
// connection reuse across probe rounds and steals.
func newHTTPClient(timeout time.Duration) *http.Client {
	return &http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			IdleConnTimeout:     90 * time.Second,
		},
	}
}
