package main

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/modlog"
	"repro/internal/rng"
)

// params sizes one benchmark run. defaultParams is the benchmark; the
// smoke test shrinks it.
type params struct {
	study       core.Config   // base config of cold-study, whatif-report and browse
	window      time.Duration // the timed window
	setupRounds int           // set-ups per run; setup_s is their median
	traceScale  int           // ring: trace replicas per year
	loRPS       float64       // browse: offered rate in the window's first half
	hiRPS       float64       // browse: offered rate in the window's second half
	refSessions int           // whatif-report: sessions compared with an in-process run
}

const (
	baseRuns     = 3 // whatif-report and browse: runs made during set-up
	ringSize     = 3 // ring: replicas
	fillsPerIter = 4 // ring: first-touch fills per iteration; the 154 last ~40 iterations
	// ringWarmups is how many untimed runs, two per replica, precede the
	// ring's window: a fresh ring's first runs are up to ~20% slower
	// while peer connections open and its heap grows, by a share that
	// differs from run to run.
	ringWarmups = 2 * ringSize
)

// studyConfig is the study every workload but ring serves: the default
// cohorts and panel, four trace years, and the 2019 month simulated. At
// SimYear 2024 one cold run takes 0.55–1.7 s depending on its seed, too
// few runs for a steady median in one window; 2019 keeps the scheduler
// sims the longest stages at ~0.17 s a run.
func studyConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.TraceYears = []int{2011, 2015, 2019, 2024}
	cfg.SimYear = 2019
	return cfg
}

func defaultParams(window time.Duration) params {
	return params{
		study:       studyConfig(),
		window:      window,
		setupRounds: 3,
		traceScale:  4,
		loRPS:       1000,
		hiRPS:       3000,
		refSessions: 5,
	}
}

// ringConfig is the ring's base config: the study with TraceScale
// replicas of each year (sixteen trace stages to steal at scale 4) and
// the small first year simulated.
func ringConfig(p params) core.Config {
	cfg := p.study
	cfg.TraceYears = append([]int(nil), p.study.TraceYears...)
	cfg.TraceScale = p.traceScale
	cfg.SimYear = cfg.TraceYears[0]
	return cfg
}

// configSeed derives the config seed of generated input i of purpose
// from the workload seed, so one workload seed always sends the same
// requests and no two inputs share a seed. It skips seeds on which the
// pipeline would never finish a module-log stage of years (see
// modlogStalls), so every run the benchmark requests completes.
func configSeed(seed uint64, purpose string, i int, years []int) uint64 {
	for try := 0; ; try++ {
		s := rng.New(seed).SplitNamed(fmt.Sprintf("%s/%d/%d", purpose, i, try)).Uint64()
		stalls := false
		for _, y := range years {
			stalls = stalls || modlogStalls(rng.New(s).SplitNamed(fmt.Sprintf("modlog-%d", y)), modlog.CampusModulesModel(y))
		}
		if !stalls {
			return s
		}
	}
}

// modlogStalls reports whether modlog's generator for m, fed r, would
// never return. Generate fills each user's repertoire with distinct
// modules until it reaches a Poisson-drawn size, stopping early only
// once it holds every module of the mix; in a year whose mix gives some
// modules zero weight (2011: anaconda, julia) a user who draws a size
// above the positive-weight count loops forever. This replica consumes r
// exactly as Generate does, up to the first such user.
func modlogStalls(r *rng.RNG, m *modlog.GeneratorModel) bool {
	positive := 0
	for _, w := range m.ModuleShare {
		if w > 0 {
			positive++
		}
	}
	cat, err := rng.NewCategorical(m.ModuleShare)
	if err != nil {
		return false // Generate fails fast on this model instead
	}
	window := uint64(m.WindowDays) * 86400
	for u := 0; u < m.Users; u++ {
		size := 1 + r.Poisson(1.3)
		if size > positive && positive < len(m.ModuleShare) {
			return true
		}
		var repertoire []string
		for len(repertoire) < size {
			if name := cat.Draw(r); !slices.Contains(repertoire, name) {
				repertoire = append(repertoire, name)
			}
			if len(repertoire) >= len(m.ModuleShare) {
				break
			}
		}
		for k, n := 0, r.Poisson(m.LoadsPerUser); k < n; k++ {
			r.Intn(len(repertoire))
			r.Uint64n(window)
		}
	}
	return false
}

// bench is one workload run's inputs and its checked client. Timings
// never go into it: what a window measures comes back as samples, so no
// clock reading shares a struct with the values requests and their
// fingerprints are derived from.
type bench struct {
	seed uint64
	p    params
	chk  checks
	rec  *recorder // nil in the untraced run
	cl   *client
}

// samples is what a workload's timed window measured.
type samples struct {
	op, aux []time.Duration // primary and secondary operation latencies
	good    int             // verified primary operations (browse: on time)
	elapsed time.Duration   // the time good is counted over
	late    time.Duration   // open-loop dispatcher lateness
}

// fixture is one set-up workload: its servers and what the timed window
// and the checks after it need.
type fixture struct {
	nodes []*node
	base  core.Config // the servers' base config
	bases []runReq    // runs made during set-up
	keys  []key       // rendered keys and their ETags
	refs  []reference // sessions to compare with an in-process run
	fills []fill      // ring: first-touch fills, in order
	next  int         // ring: fills done so far
	posts int         // ring: runs posted in the window
}

// key is one rendered artifact: its URL path and the ETag it was first
// served with.
type key struct{ path, etag string }

// reference is what a server answered for one run request, kept to be
// compared with an in-process run of the same config.
type reference struct {
	req    runReq
	ids    []string
	bodies [][]byte
}

// fill is one first-touch GET of a base key on a replica that does not
// hold it yet.
type fill struct{ node, key int }

// workload is one traffic mix: how to set it up, the timed window, and
// the checks that follow it. BENCHMARK.json and README.md say why each
// exists.
type workload struct {
	name    string
	op, aux string // what the primary and secondary latencies time
	// tailPM is the op tail percentile in per mille: the ladder value
	// (tailPercentile) for the operations a 25 s window completes on the
	// bench box, fixed so a run that completes a few more or fewer never
	// reports a different percentile.
	tailPM int
	config func(p params) core.Config
	setup  func(ctx context.Context, b *bench) (*fixture, error)
	// warmup, if set, runs once on the kept set-up, untimed and before
	// the window's first /metrics scrape.
	warmup func(ctx context.Context, b *bench, fx *fixture) error
	window func(ctx context.Context, b *bench, fx *fixture) (samples, error)
	verify func(ctx context.Context, b *bench, fx *fixture) error
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runWorkload sets w up setupRounds times, keeps the last set-up for the
// timed window, checks what the servers answered, and returns the
// end-to-end metrics, or with traced the per-layer ones (writing the
// spans to outDir). Human-readable detail goes to log.
func runWorkload(ctx context.Context, w workload, seed uint64, p params, traced bool, outDir string, log io.Writer) (result, error) {
	b := &bench{seed: seed, p: p}
	if traced {
		b.rec = &recorder{}
	}
	b.cl = newClient(&b.chk, b.rec)
	var fx *fixture
	var setups []time.Duration
	for round := 0; round < p.setupRounds; round++ {
		if fx != nil {
			if err := stopAll(ctx, fx.nodes); err != nil {
				return result{}, fmt.Errorf("tearing down set-up %d: %w", round, err)
			}
		}
		start := time.Now()
		var err error
		if fx, err = w.setup(ctx, b); err != nil {
			return result{}, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(start))
	}
	s, m, err := measure(ctx, w, b, fx)
	b.cl.hc.CloseIdleConnections()
	if stopErr := stopAll(ctx, fx.nodes); err == nil && stopErr != nil {
		err = fmt.Errorf("stopping servers: %w", stopErr)
	}
	if err != nil {
		return result{}, err
	}
	opMS, auxMS := millis(s.op), millis(s.aux)
	goodput := ratio(float64(s.good), s.elapsed.Seconds())
	fmt.Fprintf(log, "%s seed %d: set-ups %v, goodput counted over %.1fs\n", w.name, seed, setups, s.elapsed.Seconds())
	fmt.Fprintf(log, "  op  (%s): n=%d p50=%.3fms p%.1f=%.3fms goodput=%.2f/s\n", w.op, len(opMS),
		percentile(opMS, 500), float64(w.tailPM)/10, percentile(opMS, w.tailPM), goodput)
	if pm, ok := tailPercentile(len(opMS)); !ok || pm < w.tailPM {
		fmt.Fprintf(log, "  note: %d ops leave fewer than ten samples beyond p%.1f\n", len(opMS), float64(w.tailPM)/10)
	}
	fmt.Fprintf(log, "  op  p99.9=%.3fms; aux (%s): n=%d mean=%.3fms p50=%.3fms p90=%.3fms p99.9=%.3fms\n",
		percentile(opMS, 999), w.aux, len(auxMS), mean(auxMS), percentile(auxMS, 500), percentile(auxMS, 900), percentile(auxMS, 999))
	res := result{
		Attempted: b.chk.attempted.Load(),
		Failed:    b.chk.failed.Load(),
		Metrics:   map[string]metricValue{},
	}
	res.Correct = res.Failed == 0
	if !traced {
		for name, v := range map[string]float64{
			"setup_s":          medianDuration(setups),
			"peak_rss_mb":      peakRSSMB(),
			"op_p50_ms":        percentile(opMS, 500),
			"op_goodput_per_s": goodput,
		} {
			res.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
		}
		return res, nil
	}
	spans := b.rec.snapshot()
	m["bench.gen_late_max_ms"] = ms(s.late)
	// The op tail and the secondary operation's mean spread up to 0.3-0.9
	// between runs of identical code on the shared bench host, past any
	// bound a regression check may use, so they are diagnostics here and
	// not end-to-end metrics.
	m["bench.op_tail_ms"] = percentile(opMS, w.tailPM)
	m["bench.aux_mean_ms"] = mean(auxMS)
	m["bench.trace_overhead_pct"] = traceOverheadPct(spans, len(s.op), percentile(opMS, 500))
	for name, v := range m {
		res.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
	}
	path, err := writeChromeTrace(outDir, w.name, spans)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(log, "  trace: %d spans in %s; largest self times:\n", len(spans), path)
	printSelfTimes(log, spans, 12)
	return res, nil
}

// measure runs the warm-up, the timed window between two /metrics
// scrapes, then the checks that follow it, and in a traced run the
// per-layer probe. It returns the window's samples and the per-layer
// metrics (nil untraced).
func measure(ctx context.Context, w workload, b *bench, fx *fixture) (samples, map[string]float64, error) {
	if w.warmup != nil {
		if err := w.warmup(ctx, b, fx); err != nil {
			return samples{}, nil, err
		}
	}
	before, err := b.cl.scrapeAll(ctx, fx.nodes)
	if err != nil {
		return samples{}, nil, err
	}
	s, err := w.window(ctx, b, fx)
	if err != nil {
		return samples{}, nil, err
	}
	after, err := b.cl.scrapeAll(ctx, fx.nodes)
	if err != nil {
		return samples{}, nil, err
	}
	if err := w.verify(ctx, b, fx); err != nil {
		return samples{}, nil, err
	}
	if b.rec == nil {
		return s, nil, nil
	}
	m := serverCounters(after.delta(before))
	cfg := w.config(b.p)
	cfg.Seed = configSeed(b.seed, "probe", 0, cfg.TraceYears)
	probed, err := probe(ctx, b.rec, cfg)
	if err != nil {
		return samples{}, nil, fmt.Errorf("probe: %w", err)
	}
	for k, v := range probed {
		m[k] = v
	}
	return s, m, nil
}

// serverCounters turns the servers' /metrics deltas over the timed
// window into per-layer metrics.
func serverCounters(d promSnapshot) map[string]float64 {
	hits, misses := d.sum("rcpt_stagecache_hits_total"), d.sum("rcpt_stagecache_misses_total")
	renderHits := d.sum("rcpt_cache_hits_total")
	fills, fillsOK := d.sum("rcpt_cluster_peer_fills_total"), d.sum("rcpt_cluster_peer_fills_total", "outcome", "ok")
	return map[string]float64{
		"serve.route_ms.run":           1000 * d.mean("rcpt_http_request_seconds", "route", "POST /v1/run"),
		"serve.route_ms.table":         1000 * d.mean("rcpt_http_request_seconds", "route", "GET /v1/tables/{id}"),
		"serve.route_ms.figure":        1000 * d.mean("rcpt_http_request_seconds", "route", "GET /v1/figures/{id}"),
		"serve.render_cache_hit_ratio": ratio(renderHits, renderHits+d.sum("rcpt_cache_misses_total")),
		"serve.run_cache_hits":         d.sum("rcpt_run_cache_hits_total"),
		"serve.pipeline_runs":          d.sum("rcpt_pipeline_runs_total"),
		"serve.collapsed":              d.sum("rcpt_pipeline_collapsed_total"),
		"serve.admission_rejected":     d.sum("rcpt_admission_rejected_total"),
		"serve.write_errors":           d.sum("rcpt_http_write_errors_total"),
		"stagecache.hit_ratio":         ratio(hits, hits+misses),
		"stagecache.hits":              hits,
		"stagecache.misses":            misses,
		"stagecache.stores":            d.sum("rcpt_stagecache_stores_total"),
		"stagecache.evictions":         d.sum("rcpt_stagecache_evictions_total"),
		"cluster.steals_remote":        d.sum("rcpt_cluster_stage_steals_total", "outcome", "remote"),
		"cluster.steals_local":         d.sum("rcpt_cluster_stage_steals_total", "outcome", "local"),
		"cluster.steal_ms":             1000 * d.mean("rcpt_cluster_stage_steal_seconds"),
		"cluster.fills_ok":             fillsOK,
		"cluster.fills_error":          fills - fillsOK,
		"cluster.lease_requests":       d.sum("rcpt_cluster_lease_requests_total"),
		"cluster.gossip_sent":          d.sum("rcpt_cluster_gossip_sent_total"),
		"cluster.epoch_mismatch":       d.sum("rcpt_cluster_epoch_mismatch_total"),
	}
}

// traceOverheadPct estimates what recording spans added to the traced
// primary operation: spans per operation times the measured cost of
// recording one, as a share of the traced op median.
func traceOverheadPct(spans []span, ops int, opP50ms float64) float64 {
	client := 0
	for _, s := range spans {
		if s.Op >= 0 {
			client++
		}
	}
	scratch := &recorder{}
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		now := time.Now()
		scratch.add("op", "", now, now, i, 1)
	}
	perSpanMS := float64(time.Since(start)) / n / float64(time.Millisecond)
	return 100 * ratio(float64(client)*perSpanMS, float64(ops)*opP50ms)
}

// printSelfTimes lists the top span names by summed self time.
func printSelfTimes(log io.Writer, spans []span, top int) {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if self[names[i]] != self[names[j]] {
			return self[names[i]] > self[names[j]]
		}
		return names[i] < names[j]
	})
	for i, name := range names {
		if i == top {
			break
		}
		fmt.Fprintf(log, "    %-32s %10.3fms\n", name, float64(self[name])/float64(time.Millisecond))
	}
}

// peakRSSMB is the process's peak resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// unitOf derives a metric's unit from its name's suffix.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_mb_s"):
		return "MB/s"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_ms"), strings.Contains(name, "_ms."):
		return "ms"
	case strings.HasSuffix(name, "_s"), strings.Contains(name, "_s."):
		return "s"
	case strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, "_share"):
		return "ratio"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	}
	return "count"
}
