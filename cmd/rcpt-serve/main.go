// rcpt-serve runs the study apparatus as a long-running HTTP service:
// tables and figures off a cached deterministic pipeline run,
// parameterized runs, survey-response validation, on-demand statistics,
// and Prometheus metrics.
//
// Usage:
//
//	rcpt-serve [-addr :8080] [-seed 42] [-n2011 200] [-n2024 600]
//	           [-years 2011,2013,...] [-workers N] [-cache-mb 64] [-warm]
//	           [-max-cohort 20000] [-max-runs 2] [-queue-timeout 10s]
//	           [-drain-timeout 30s] [-run-timeout 0] [-cache-dir DIR]
//	           [-stage-retries N]
//	           [-stage-cache] [-stage-cache-dir DIR] [-stage-cache-mb 27]
//	           [-breaker-threshold 3] [-breaker-cooldown 30s]
//	           [-chaos "seed=1,panic=0.05,error=0.05"]
//	           [-pprof localhost:6060]
//	           [-trace-scale N]
//	           [-peers URL,URL,...] [-join URL,URL,...] [-self URL]
//	           [-peer-secret S] [-peer-probe-interval 2s]
//	           [-peer-suspect-timeout 10s] [-readyz-quorum]
//
// -peers or -join turns on distributed serving (see internal/cluster).
// -peers seeds the membership statically: the comma-separated list is
// the initial ring, -self is this replica's own advertised base URL
// (it must appear in -peers). -join instead bootstraps dynamically:
// the replica starts as a ring of one and probes the listed seed
// replicas until one answers, learning the rest of the membership over
// gossip — so a 3-replica ring is one replica with -peers $SELF and
// two more with -join $FIRST. Either way membership is dynamic after
// boot: SWIM-style probing (direct, then indirect through peers)
// moves unresponsive members alive→suspect→dead and gossips the
// change, and the consistent hash ring is rebuilt under a
// content-derived epoch that every replica converges to without
// coordination. A config fingerprint routes to an authority replica,
// non-authorities fill their caches from it (fills carry the epoch, so
// a fill that straddles a handover is redirected, not recomputed), a
// fill that cannot reach the authority walks on to the next live
// member in the fingerprint's takeover order, which keeps duplicate
// pipeline runs off the ring even when the authority dies before any
// prober notices, and trace stages are work-stolen by idle peers.
// Replicas share no state — determinism is the replication protocol —
// so any replica can always fall back to serving alone.
// -peer-suspect-timeout is how long a suspect member has to refute
// before it is declared dead and leaves the ring. -readyz-quorum makes
// /readyz fail (503) on quorum loss instead of reporting degraded
// detail with a 200.
//
// -trace-scale replicates every trace year N× (a 100× or 1000×
// synthetic trace for scaling studies). It changes the fingerprint and
// the artifacts. Each (year, replica) is its own stage and its own
// resident column table, so scaling multiplies tables rather than
// growing one; run under GOMEMLIMIT to bound the heap.
//
// -cache-dir enables crash-safe persistence: rendered artifacts are
// atomically spilled to disk and checksum-validated back into the cache
// on boot, so a restarted (or kill -9'd) daemon serves its pre-crash
// tables with identical ETags. -chaos turns on deterministic fault
// injection (dev/test only; see internal/fault).
//
// -stage-cache enables the Merkle stage cache: each pipeline stage's
// output is stored under a content key derived from the stage's own
// inputs and its upstream stages' keys, so a POST /v1/run that
// differs from a previous run in one late parameter (say, the
// scheduling policy) recomputes only the stages that parameter
// reaches and restores the rest byte-identically — same artifacts,
// same ETags, a fraction of the compute. A restored stage stays the
// cached payload until something reads it: trace and telemetry tables
// decode their columns on first scan, and the sims and the panel
// decode when a render that declares them asks, so a what-if run
// decodes only what its summary and its re-rendered artifacts read.
// The cache also keeps T16's seed sweep as two halves, one per
// cohort, keyed by the seed and that cohort's size, so a run that
// changes one cohort's size re-renders T16 from the other cohort's
// cached half. -stage-cache-dir persists stage entries crash-safely
// (and implies -stage-cache); -stage-cache-mb bounds the in-memory
// tier by payload bytes (default 27 MiB). Corrupt entries are
// detected by checksum and recomputed: stage-cache faults cost
// latency, never bytes.
//
// The daemon drains gracefully on SIGINT/SIGTERM: readiness flips to
// 503, in-flight requests finish (bounded by -drain-timeout), and the
// process exits 0 on a clean drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/fault"
	"repro/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rcpt-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	seed := flag.Uint64("seed", 42, "base study seed")
	n2011 := flag.Int("n2011", 200, "base 2011 cohort size")
	n2024 := flag.Int("n2024", 600, "base 2024 cohort size")
	years := flag.String("years", "", "comma-separated trace years (default: the standard study years)")
	workers := flag.Int("workers", 0, "pipeline workers per run (0 = GOMAXPROCS)")
	cacheMB := flag.Int64("cache-mb", 64, "rendered-artifact cache bound in MiB")
	maxCohort := flag.Int("max-cohort", 20000, "per-cohort size cap for POST /v1/run")
	runLimit := flag.Int("max-runs", 2, "concurrent pipeline runs")
	queueTimeout := flag.Duration("queue-timeout", 10*time.Second, "max time a request waits for capacity")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to drain in-flight requests on shutdown")
	warm := flag.Bool("warm", false, "run the base pipeline before accepting traffic")
	runTimeout := flag.Duration("run-timeout", 0, "wall-clock cap per pipeline run (0 = uncapped)")
	cacheDir := flag.String("cache-dir", "", "directory for crash-safe cache persistence (empty = in-memory only)")
	stageRetries := flag.Int("stage-retries", 0, "retries per failed pipeline stage")
	stageCache := flag.Bool("stage-cache", false, "reuse per-stage pipeline outputs across runs (content-addressed; in-memory unless -stage-cache-dir)")
	stageCacheDir := flag.String("stage-cache-dir", "", "directory for crash-safe stage-cache persistence (implies -stage-cache)")
	stageCacheMB := flag.Int64("stage-cache-mb", 0, "stage-cache in-memory bound in MiB of payload (0 = default 27)")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive failures that trip a config's circuit breaker")
	breakerCooldown := flag.Duration("breaker-cooldown", 30*time.Second, "how long a tripped breaker fast-fails before a trial run")
	chaos := flag.String("chaos", "", `deterministic fault injection, e.g. "seed=1,panic=0.05,error=0.05,latency=0.1,delay=5ms[,stages=a|b]" (dev/test only)`)
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = disabled, never on the public listener)")
	traceScale := flag.Int("trace-scale", 0, "replicate each trace year N× (0/1 = unscaled; changes the fingerprint)")
	peers := flag.String("peers", "", "comma-separated base URLs seeding the initial membership, including this one (empty = standalone unless -join)")
	join := flag.String("join", "", "comma-separated seed replica URLs to join an existing cluster through (empty = bootstrap from -peers)")
	self := flag.String("self", "", "this replica's advertised base URL (required with -peers or -join)")
	peerSecret := flag.String("peer-secret", "", "shared secret authenticating peer endpoints (empty = unauthenticated; localhost only)")
	probeInterval := flag.Duration("peer-probe-interval", 2*time.Second, "peer health probe period")
	suspectTimeout := flag.Duration("peer-suspect-timeout", 0, "how long a suspect member may refute before being declared dead (0 = 5x probe interval, min 3s)")
	readyzQuorum := flag.Bool("readyz-quorum", false, "make /readyz return 503 on cluster quorum loss (default: 200 with degraded detail)")
	flag.Parse()

	chaosSpec, err := fault.ParseSpec(*chaos)
	if err != nil {
		return err
	}
	if chaosSpec.Enabled() || chaosSpec.NetEnabled() {
		fmt.Fprintln(os.Stderr, "rcpt-serve: CHAOS MODE — deterministic fault injection is active; do not use in production")
	}

	cfg := rcpt.DefaultConfig()
	cfg.Seed = *seed
	cfg.N2011 = *n2011
	cfg.N2024 = *n2024
	cfg.Workers = *workers
	cfg.TraceScale = *traceScale
	if *years != "" {
		ys, err := parseYears(*years)
		if err != nil {
			return err
		}
		cfg.TraceYears = ys
		cfg.SimYear = ys[len(ys)-1]
	}

	opts := serve.Options{
		BaseConfig:         cfg,
		CacheBytes:         *cacheMB << 20,
		MaxCohort:          *maxCohort,
		RunLimit:           *runLimit,
		QueueTimeout:       *queueTimeout,
		RunTimeout:         *runTimeout,
		CacheDir:           *cacheDir,
		StageCache:         *stageCache,
		StageCacheDir:      *stageCacheDir,
		StageCacheBytes:    *stageCacheMB << 20,
		StageRetries:       *stageRetries,
		BreakerThreshold:   *breakerThreshold,
		BreakerCooldown:    *breakerCooldown,
		Chaos:              chaosSpec,
		ReadyzQuorumStrict: *readyzQuorum,
	}
	if *peers != "" || *join != "" {
		if *self == "" {
			return fmt.Errorf("cluster mode (-peers or -join) requires -self (this replica's own base URL)")
		}
		opts.Cluster = &cluster.Options{
			Self:           *self,
			Secret:         *peerSecret,
			ProbeInterval:  *probeInterval,
			SuspectTimeout: *suspectTimeout,
		}
		if *peers != "" {
			opts.Cluster.Peers = strings.Split(*peers, ",")
		}
		if *join != "" {
			opts.Cluster.Join = strings.Split(*join, ",")
		}
	}
	srv, err := serve.New(opts)
	if err != nil {
		return err
	}
	if *warm {
		fmt.Fprintf(os.Stderr, "rcpt-serve: warming base run %s\n", srv.BaseFingerprint())
		if err := srv.Warm(); err != nil {
			return fmt.Errorf("warmup: %w", err)
		}
	}

	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		fmt.Fprintf(os.Stderr, "rcpt-serve: pprof on %s (keep this address private)\n", pln.Addr())
		pprofSrv := &http.Server{Handler: serve.PprofMux()}
		go func() {
			defer func() {
				if p := recover(); p != nil {
					fmt.Fprintf(os.Stderr, "rcpt-serve: pprof server panicked: %v\n", p)
				}
			}()
			// Best-effort debug endpoint: its lifecycle errors must never
			// take down the service it is observing.
			if err := pprofSrv.Serve(pln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintf(os.Stderr, "rcpt-serve: pprof server: %v\n", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rcpt-serve: listening on %s (base config %s)\n",
		ln.Addr(), srv.BaseFingerprint()[:12])
	if opts.Cluster != nil {
		switch {
		case len(opts.Cluster.Join) > 0:
			fmt.Fprintf(os.Stderr, "rcpt-serve: cluster mode — joining via %s, self %s\n",
				strings.Join(opts.Cluster.Join, ","), *self)
		default:
			fmt.Fprintf(os.Stderr, "rcpt-serve: cluster mode — %d seed replicas, self %s\n",
				len(opts.Cluster.Peers), *self)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				serveErr <- fmt.Errorf("serve panicked: %v", p)
			}
		}()
		serveErr <- srv.Serve(ln)
	}()

	select {
	case err := <-serveErr:
		// Listener died before any signal: that is a hard failure.
		return err
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "rcpt-serve: draining")

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Both error paths are propagated: a failed Shutdown (e.g. the drain
	// deadline expired with requests still in flight) and any error the
	// serve loop surfaced while winding down.
	return errors.Join(srv.Shutdown(drainCtx), <-serveErr)
}

// parseYears parses "-years 2011,2013" into a sorted-as-given int list.
func parseYears(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	years := make([]int, 0, len(parts))
	for _, p := range parts {
		y, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad year %q in -years", p)
		}
		years = append(years, y)
	}
	return years, nil
}
