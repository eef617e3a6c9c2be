package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
)

// connsPerServer caps the client's connections to each server at the
// bench box's CPU count, so load comes from one process through at most
// two connections per server.
const connsPerServer = 2

// checks counts checked operations and the ones that failed a check.
// Every failure counts once, whatever check it failed.
type checks struct {
	attempted atomic.Int64
	failed    atomic.Int64
	logged    atomic.Int64
}

// record counts one checked operation; a non-nil err marks it failed,
// and the first few failures are printed to standard error.
func (c *checks) record(err error) bool {
	c.attempted.Add(1)
	if err == nil {
		return true
	}
	c.failed.Add(1)
	if c.logged.Add(1) <= 10 {
		fmt.Fprintln(os.Stderr, "bench: check failed:", err)
	}
	return false
}

// node is one in-process server on a loopback listener.
type node struct {
	srv  *serve.Server
	url  string
	done chan error // Serve's result, sent once
}

// listen reserves n loopback listeners, so every server's options can
// name the whole ring before any server is built.
func listen(ctx context.Context, n int) ([]net.Listener, []string, error) {
	ls := make([]net.Listener, 0, n)
	urls := make([]string, 0, n)
	var lc net.ListenConfig
	for i := 0; i < n; i++ {
		l, err := lc.Listen(ctx, "tcp", "127.0.0.1:0")
		if err != nil {
			for _, prev := range ls {
				_ = prev.Close() // unused listener; nothing was written
			}
			return nil, nil, err
		}
		ls = append(ls, l)
		urls = append(urls, "http://"+l.Addr().String())
	}
	return ls, urls, nil
}

// newServer builds a server. Calls go through this variable so that the
// static call graph rcptlint's ctxprop walks ends here: serve.New starts
// a ring member's gossip prober, a goroutine Shutdown stops, and a
// direct call would make every context-aware harness function the
// prober's caller.
var newServer = serve.New

// startNode builds a server and serves it on l until stop.
func startNode(opts serve.Options, l net.Listener, url string) (*node, error) {
	srv, err := newServer(opts)
	if err != nil {
		return nil, err
	}
	n := &node{srv: srv, url: url, done: make(chan error, 1)}
	go func() {
		defer func() {
			if p := recover(); p != nil {
				n.done <- fmt.Errorf("server %s panicked: %v", url, p)
			}
		}()
		n.done <- srv.Serve(l)
	}()
	return n, nil
}

// stop drains the server and waits for its serve loop to return.
func (n *node) stop(ctx context.Context) error {
	err := n.srv.Shutdown(ctx)
	select {
	case serveErr := <-n.done:
		return errors.Join(err, serveErr)
	case <-ctx.Done():
		return errors.Join(err, ctx.Err())
	}
}

// reply is one HTTP response, read whole.
type reply struct {
	status int
	etag   string
	body   []byte
}

// client sends a workload's requests and checks every answer.
type client struct {
	hc  *http.Client
	chk *checks
	rec *recorder
}

func newClient(chk *checks, rec *recorder) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     connsPerServer,
		MaxIdleConnsPerHost: connsPerServer,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}, chk: chk, rec: rec}
}

// at places a request in the trace: the name of the span it belongs
// to, its client operation, and the worker that sent it.
type at struct {
	parent    string
	op, track int
}

// do sends one request, reads the whole body, and records its span. The
// latency covers sending through the last body byte.
func (c *client) do(ctx context.Context, where at, name, method, url string, body []byte, header http.Header) (reply, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, 0, err
	}
	for k, v := range header {
		req.Header[k] = v
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, time.Since(start), fmt.Errorf("%s %s: %w", method, url, err)
	}
	data, readErr := io.ReadAll(resp.Body)
	closeErr := resp.Body.Close()
	end := time.Now()
	c.rec.add(name, where.parent, start, end, where.op, where.track)
	if err := errors.Join(readErr, closeErr); err != nil {
		return reply{}, end.Sub(start), fmt.Errorf("%s %s: %w", method, url, err)
	}
	return reply{status: resp.StatusCode, etag: resp.Header.Get("ETag"), body: data}, end.Sub(start), nil
}

// etagOf is the strong ETag the servers derive from a body: its quoted
// SHA-256.
func etagOf(body []byte) string {
	sum := sha256.Sum256(body)
	return `"` + hex.EncodeToString(sum[:]) + `"`
}

// get fetches url and checks the answer. Without ifNoneMatch it must be
// a 200 whose body hashes to its ETag; with one it must be a 304 naming
// that same ETag. want, when set, is the ETag the key is known to have.
func (c *client) get(ctx context.Context, where at, name, url, ifNoneMatch, want string) (reply, time.Duration, bool) {
	var h http.Header
	if ifNoneMatch != "" {
		h = http.Header{"If-None-Match": {ifNoneMatch}}
	}
	r, d, err := c.do(ctx, where, name, http.MethodGet, url, nil, h)
	if err == nil {
		err = checkGet(r, ifNoneMatch, want)
		if err != nil {
			err = fmt.Errorf("GET %s: %w", url, err)
		}
	}
	return r, d, c.chk.record(err)
}

// checkGet applies the GET checks to one reply.
func checkGet(r reply, ifNoneMatch, want string) error {
	switch {
	case ifNoneMatch != "" && r.status != http.StatusNotModified:
		return fmt.Errorf("status %d for a matching If-None-Match, want 304", r.status)
	case ifNoneMatch == "" && r.status != http.StatusOK:
		return fmt.Errorf("status %d: %.200s", r.status, r.body)
	case r.status == http.StatusNotModified && r.etag != ifNoneMatch:
		return fmt.Errorf("304 with ETag %s for If-None-Match %s", r.etag, ifNoneMatch)
	case r.status == http.StatusOK && etagOf(r.body) != r.etag:
		return fmt.Errorf("body hashes to %s, ETag says %s", etagOf(r.body), r.etag)
	case want != "" && r.etag != want:
		return fmt.Errorf("ETag %s, the key's ETag is %s", r.etag, want)
	}
	return nil
}

// runReq is the body of one POST /v1/run: a seed plus at most one
// survey-side field changed from the server's base config.
type runReq struct {
	Seed      uint64   `json:"seed"`
	N2011     *int     `json:"n2011,omitempty"`
	N2024     *int     `json:"n2024,omitempty"`
	PanelN    *int     `json:"panelN,omitempty"`
	NoiseRate *float64 `json:"noiseRate,omitempty"`
}

// config is the configuration the server should resolve r to, given
// its base config.
func (r runReq) config(base core.Config) core.Config {
	cfg := base
	cfg.TraceYears = append([]int(nil), base.TraceYears...)
	cfg.Seed = r.Seed
	if r.N2011 != nil {
		cfg.N2011 = *r.N2011
	}
	if r.N2024 != nil {
		cfg.N2024 = *r.N2024
	}
	if r.PanelN != nil {
		cfg.PanelN = *r.PanelN
	}
	if r.NoiseRate != nil {
		cfg.NoiseRate = *r.NoiseRate
	}
	return cfg
}

// post sends one run request to n, whose base config is base, and
// checks the answer: a 200 whose body hashes to its ETag and whose
// fingerprint is the one the harness computes for the config it meant
// to send. It returns that fingerprint.
func (c *client) post(ctx context.Context, where at, n *node, base core.Config, r runReq) (string, time.Duration, bool) {
	body, err := json.Marshal(r)
	if err != nil {
		return "", 0, c.chk.record(err)
	}
	want := r.config(base).Fingerprint()
	rep, d, err := c.do(ctx, where, "http.post.run", http.MethodPost, n.url+"/v1/run", body,
		http.Header{"Content-Type": {"application/json"}})
	if err == nil {
		err = checkRun(rep, want)
	}
	return want, d, c.chk.record(err)
}

// checkRun applies the POST /v1/run checks to one reply.
func checkRun(rep reply, want string) error {
	if err := checkGet(rep, "", ""); err != nil {
		return fmt.Errorf("POST /v1/run: %w", err)
	}
	var sum struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(rep.body, &sum); err != nil {
		return fmt.Errorf("POST /v1/run: decoding summary: %w", err)
	}
	if sum.Fingerprint != want {
		return fmt.Errorf("POST /v1/run: fingerprint %s, the config sent has %s", sum.Fingerprint, want)
	}
	return nil
}

// scrape reads n's /metrics exposition.
func (c *client) scrape(ctx context.Context, n *node) (promSnapshot, error) {
	rep, _, err := c.do(ctx, at{"", -1, 0}, "http.get.metrics", http.MethodGet, n.url+"/metrics", nil, nil)
	if err != nil {
		return nil, err
	}
	if rep.status != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", n.url, rep.status)
	}
	return parseProm(string(rep.body))
}

// scrapeAll sums the /metrics expositions of every node.
func (c *client) scrapeAll(ctx context.Context, nodes []*node) (promSnapshot, error) {
	total := promSnapshot{}
	for _, n := range nodes {
		s, err := c.scrape(ctx, n)
		if err != nil {
			return nil, err
		}
		total.add(s)
	}
	return total, nil
}

// stopAll stops every node and waits for each.
func stopAll(ctx context.Context, nodes []*node) error {
	ctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	var errs []error
	for _, n := range nodes {
		errs = append(errs, n.stop(ctx))
	}
	return errors.Join(errs...)
}
