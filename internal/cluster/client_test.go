package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
)

// spaces is an endless source of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

// TestPeerReadsAreCapped: a peer may not make a replica read without
// bound. A fake peer answers a fill and a steal with a body one byte
// over the data cap that hashes to its ETag (declaring its length, so
// the client refuses it unread), and a gossip verb with valid JSON one
// byte over the JSON cap (streamed with no declared length, so the
// client stops reading at the cap). Every call returns an error;
// without the caps every one would succeed or read on.
func TestPeerReadsAreCapped(t *testing.T) {
	body := func(n int64) io.Reader { return io.MultiReader(strings.NewReader("{}"), io.LimitReader(spaces{}, n-2)) }
	h := sha256.New()
	if _, err := io.Copy(h, body(maxPayloadBytes+1)); err != nil {
		t.Fatal(err)
	}
	etag := `"` + hex.EncodeToString(h.Sum(nil)) + `"`
	over := func(n int64, declare bool) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if declare {
				w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
			}
			w.Header().Set("ETag", etag)
			_, _ = io.Copy(w, body(n))
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/peer/artifact/{fp}/{artifact}", over(maxPayloadBytes+1, true))
	mux.HandleFunc("POST /v1/peer/stage", over(maxPayloadBytes+1, true))
	mux.HandleFunc("POST /v1/peer/probe", over(maxJSONBytes+1, false))
	srv := httptest.NewServer(mux)
	defer srv.Close()
	cl := &peerClient{hc: srv.Client()}
	ctx := context.Background()

	if _, err := cl.fetchArtifact(ctx, srv.URL, "fp", "T1", "json", "", FillPlain); err == nil {
		t.Error("fill accepted a body over the data cap")
	}
	if _, err := cl.postStage(ctx, srv.URL, StageRequest{Stage: "trace-2011"}); err == nil {
		t.Error("steal accepted a body over the data cap")
	}
	if _, err := cl.probe(ctx, srv.URL, ProbeRequest{}); err == nil {
		t.Error("probe accepted a body over the JSON cap")
	}
}
