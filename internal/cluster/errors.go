package cluster

import "fmt"

// RemoteStageError records a failed attempt to execute a pipeline stage
// on a peer. It wraps the transport/decode cause and carries enough
// attribution — which peer, which stage, which attempt — for the
// serving layer's error envelope to say *where* distribution failed.
// It flows through the ordinary error chain: when a steal's local
// fallback also fails, the stage fails with a *parallel.StageError
// whose chain contains this, so errors.As pulls the peer attribution
// out of the same typed path every local stage error takes.
type RemoteStageError struct {
	Peer    string // base URL of the peer that failed
	Stage   string // pipeline stage name, e.g. "trace-2024-rep3"
	Attempt int    // 1-based attempt number against this peer
	Err     error
}

func (e *RemoteStageError) Error() string {
	return fmt.Sprintf("cluster: stage %s on peer %s (attempt %d): %v", e.Stage, e.Peer, e.Attempt, e.Err)
}

func (e *RemoteStageError) Unwrap() error { return e.Err }

// NotAuthorityError is a peer's 409 answer to an authority fill: "I
// don't hold these bytes and, by my ring, I shouldn't compute them."
// It carries the responder's view — who it believes the authority is
// and its ring epoch — so a requester whose fill straddled a membership
// change can retry against the new authority instead of treating the
// refusal as a peer failure.
type NotAuthorityError struct {
	Peer      string // who refused
	Authority string // who the responder believes owns the key ("" if unknown)
	Epoch     string // responder's ring epoch, hex
}

func (e *NotAuthorityError) Error() string {
	return fmt.Sprintf("cluster: peer %s is not the authority (it names %q, epoch %s)", e.Peer, e.Authority, e.Epoch)
}

// PeerError is a non-2xx response from a peer endpoint, preserving the
// status code so callers can distinguish "peer is up but refused"
// (auth, validation) from transport failures.
type PeerError struct {
	Peer   string
	Status int
	Body   string
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("cluster: peer %s returned %d: %s", e.Peer, e.Status, e.Body)
}
