package cluster

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/table"
	"repro/internal/trace"
)

// The peer protocol's client half. Seven verbs, all under /v1/peer/
// and all authenticated with the shared secret header — three on the
// data plane:
//
//	GET  /v1/peer/artifact/{fp}/{artifact}?format=&config=   cache fill
//	POST /v1/peer/lease                                      compute lease
//	POST /v1/peer/stage                                      stage steal
//
// and four on the membership plane:
//
//	POST /v1/peer/probe           direct liveness probe + gossip
//	POST /v1/peer/probe-indirect  probe a third peer on my behalf
//	POST /v1/peer/join            announce a new replica to the ring
//	GET  /v1/peer/status          operator view: members, epoch, quorum
//
// Every probe, ack, and join response piggybacks the sender's full
// membership view, so rumor needs no channel of its own; data-plane
// requests carry the requester's ring epoch so a fill or grant that
// straddles a membership change is detected, not trusted.
//
// Every byte-carrying response is integrity-checked on this side: an
// artifact body must hash to its own ETag (the determinism contract
// makes the ETag a content address, so the check needs no extra
// protocol), and a stage response is a checksummed "rcpt-col/1"
// envelope whose decoded table must match the peer's declared content
// hash. A peer that sends damaged bytes is indistinguishable from a
// peer that sent none — callers fall back, and corruption can never
// reach a client.

// SecretHeader carries the shared cluster secret on peer requests.
const SecretHeader = "X-Rcpt-Peer-Secret"

// TableHashHeader carries the content hash (table.Table.Hash, hex) of a
// stage response, computed by the peer before encoding.
const TableHashHeader = "X-Rcpt-Table-Hash"

// EpochHeader carries the requester's ring epoch (hex) on authority
// fills, and the responder's on the reply — so a fill that straddles a
// membership change is visible to both sides. Epoch disagreement alone
// never refuses bytes (they are content-addressed); it is metered, and
// a cold non-authority responder uses it to redirect the requester.
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

// ConfigParam is the query parameter carrying the base64url-encoded
// JSON config on peer artifact requests, so an owner can compute a run
// it has never seen. (A fingerprint alone names the bytes but cannot
// reconstruct the configuration that produces them.)
const ConfigParam = "config"

// peerClient issues peer-protocol requests.
type peerClient struct {
	hc     *http.Client
	secret string
}

// LeaseRequest / LeaseResponse are the lease endpoint's JSON bodies.
// Release true drops the holder's lease instead of acquiring one.
// Epoch (hex, optional) is each side's ring epoch at send time: a
// mismatch marks a grant that straddled a membership change — advisory
// waste worth metering, never a correctness problem.
type LeaseRequest struct {
	Key     string `json:"key"`
	Holder  string `json:"holder"`
	Release bool   `json:"release,omitempty"`
	Epoch   string `json:"epoch,omitempty"`
}

type LeaseResponse struct {
	Granted bool   `json:"granted"`
	Holder  string `json:"holder"`
	TTLMs   int64  `json:"ttl_ms"`
	Epoch   string `json:"epoch,omitempty"`
}

// StageRequest is the stage-steal endpoint's JSON body. Epoch carries
// the thief's ring epoch for the same observability as leases.
type StageRequest struct {
	Config core.Config `json:"config"`
	Year   int         `json:"year"`
	Rep    int         `json:"rep"`
	Epoch  string      `json:"epoch,omitempty"`
}

// EncodeConfigParam serializes cfg for the artifact request's config
// query parameter.
func EncodeConfigParam(cfg core.Config) (string, error) {
	raw, err := json.Marshal(cfg)
	if err != nil {
		return "", fmt.Errorf("cluster: encoding config: %w", err)
	}
	return base64.RawURLEncoding.EncodeToString(raw), nil
}

// DecodeConfigParam reverses EncodeConfigParam (used by the serve-side
// peer handler).
func DecodeConfigParam(s string) (core.Config, error) {
	raw, err := base64.RawURLEncoding.DecodeString(s)
	if err != nil {
		return core.Config{}, fmt.Errorf("cluster: config parameter: %w", err)
	}
	var cfg core.Config
	if err := json.Unmarshal(raw, &cfg); err != nil {
		return core.Config{}, fmt.Errorf("cluster: config parameter: %w", err)
	}
	return cfg, nil
}

// fetchArtifact GETs one rendered artifact from peer and verifies the
// body against its ETag: the ETag is the quoted sha256 of the bytes, so
// recomputing it client-side proves the transfer intact end to end.
// epochHex rides along so the responder can detect a fill that
// straddled a ring change; a 409 comes back as *NotAuthorityError with
// the responder's view attached, and the caller re-resolves.
func (cl *peerClient) fetchArtifact(ctx context.Context, peer, fp, artifact, format, cfgParam, epochHex string, hint bool) ([]byte, error) {
	u := fmt.Sprintf("%s/v1/peer/artifact/%s/%s?format=%s&%s=%s",
		peer, url.PathEscape(fp), url.PathEscape(artifact), url.QueryEscape(format), ConfigParam, url.QueryEscape(cfgParam))
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	if epochHex != "" {
		req.Header.Set(EpochHeader, epochHex)
	}
	if hint {
		req.Header.Set(HintHeader, "1")
	}
	cl.auth(req)
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
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("cluster: reading artifact from %s: %w", peer, err)
	}
	sum := sha256.Sum256(body)
	if want := `"` + hex.EncodeToString(sum[:]) + `"`; resp.Header.Get("ETag") != want {
		return nil, &table.IntegrityError{Reason: fmt.Sprintf("artifact body from %s does not hash to its ETag", peer)}
	}
	return body, nil
}

// postLease asks authority for (or releases) the compute lease on
// lr.Key.
func (cl *peerClient) postLease(ctx context.Context, authority string, lr LeaseRequest) (*LeaseResponse, error) {
	body, err := json.Marshal(lr)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, authority+"/v1/peer/lease", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	cl.auth(req)
	resp, err := cl.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, peerErr(authority, resp)
	}
	var lresp LeaseResponse
	if err := json.NewDecoder(resp.Body).Decode(&lresp); err != nil {
		return nil, fmt.Errorf("cluster: lease response from %s: %w", authority, err)
	}
	return &lresp, nil
}

// postStage asks peer to execute one (year, rep) trace stage and
// returns the decoded, doubly verified table: the stream envelope
// checksums the wire bytes, and the decoded table's content hash must
// equal the one the peer computed before encoding.
func (cl *peerClient) postStage(ctx context.Context, peer string, sr StageRequest) (trace.JobTable, error) {
	body, err := json.Marshal(sr)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/v1/peer/stage", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	cl.auth(req)
	resp, err := cl.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, peerErr(peer, resp)
	}
	tab, err := table.DecodeStream[trace.Job](resp.Body, trace.JobCodec{})
	if err != nil {
		return nil, err
	}
	declared := resp.Header.Get(TableHashHeader)
	if declared == "" {
		return nil, &table.IntegrityError{Reason: fmt.Sprintf("stage response from %s carries no content hash", peer)}
	}
	want, err := strconv.ParseUint(declared, 16, 64)
	if err != nil {
		return nil, &table.IntegrityError{Reason: fmt.Sprintf("stage response from %s: bad content hash %q", peer, declared)}
	}
	got, err := tab.Hash()
	if err != nil {
		return nil, err
	}
	if got != want {
		return nil, &table.IntegrityError{Reason: fmt.Sprintf("stage table from %s hashes to %x, peer declared %x", peer, got, want)}
	}
	return tab, nil
}

// postJSON POSTs body to peer+path and decodes the 200 response into
// out — the shared shape of every gossip verb.
func (cl *peerClient) postJSON(ctx context.Context, peer, path string, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+path, bytes.NewReader(raw))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	cl.auth(req)
	resp, err := cl.hc.Do(req)
	if err != nil {
		return err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return peerErr(peer, resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("cluster: response from %s%s: %w", peer, path, err)
	}
	return nil
}

// probe sends a direct gossip probe.
func (cl *peerClient) probe(ctx context.Context, peer string, pr ProbeRequest) (*ProbeAck, error) {
	var ack ProbeAck
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

// join announces this replica to a seed node and pulls the member list.
func (cl *peerClient) join(ctx context.Context, seed string, jr JoinRequest) (*JoinResponse, error) {
	var resp JoinResponse
	if err := cl.postJSON(ctx, seed, "/v1/peer/join", jr, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// status fetches a peer's /v1/peer/status JSON (raw; the caller shapes
// it for display).
func (cl *peerClient) status(ctx context.Context, peer string) (json.RawMessage, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/peer/status", nil)
	if err != nil {
		return nil, err
	}
	cl.auth(req)
	resp, err := cl.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, peerErr(peer, resp)
	}
	return io.ReadAll(resp.Body)
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
