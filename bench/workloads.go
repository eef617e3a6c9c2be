package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/serve"
)

// ringSecret authenticates the ring's peer endpoints.
const ringSecret = "bench-ring"

// onTime is how late after its due time a browse answer may arrive and
// still count toward goodput.
const onTime = 5 * time.Millisecond

var workloads = []workload{
	{
		name:   "cold-study",
		op:     "POST /v1/run, fresh seed",
		aux:    "first GET of the run's T5",
		tailPM: 750,
		config: func(p params) core.Config { return p.study },
		setup:  coldSetup,
		window: coldWindow,
		verify: verifyRefs,
	},
	{
		name:   "whatif-report",
		op:     "session: POST /v1/run + GET of its 29 artifacts",
		aux:    "the session's POST /v1/run",
		tailPM: 900,
		config: func(p params) core.Config { return p.study },
		setup:  whatifSetup,
		window: whatifWindow,
		verify: verifyRefs,
	},
	{
		name: "browse",
		op:   "GET at the high rate, timed from its due time",
		aux:  "GET at the low rate, timed from its due time",
		// The ladder allows p99.9 here, but on the 2-CPU box p99 and p99.9
		// track single GC and host stalls and vary 2-3x between identical
		// runs; the tail a user meets is in op_goodput_per_s (answers
		// within 5 ms of their due time) instead.
		tailPM: 950,
		config: func(p params) core.Config { return p.study },
		setup:  browseSetup,
		window: browseWindow,
		verify: func(context.Context, *bench, *fixture) error { return nil },
	},
	{
		name:   "ring",
		op:     "POST /v1/run on replica i mod 3, fresh seed",
		aux:    "first-touch GET filled from the authority",
		tailPM: 750,
		config: ringConfig,
		setup:  ringSetup,
		warmup: ringWarmup,
		window: ringWindow,
		verify: ringVerify,
	},
}

// boot starts n servers with production options, the in-memory stage
// cache, and base as their base config; n > 1 makes them one ring.
func boot(ctx context.Context, base core.Config, n int) (*fixture, error) {
	ls, urls, err := listen(ctx, n)
	if err != nil {
		return nil, err
	}
	fx := &fixture{base: base}
	for i, l := range ls {
		opts := serve.Options{BaseConfig: base, StageCache: true}
		if n > 1 {
			opts.Cluster = &cluster.Options{Self: urls[i], Peers: urls, Secret: ringSecret}
		}
		nd, err := startNode(opts, l, urls[i])
		if err != nil {
			for _, rest := range ls[i:] {
				_ = rest.Close() // never served; nothing was written
			}
			return nil, errors.Join(err, stopAll(ctx, fx.nodes))
		}
		fx.nodes = append(fx.nodes, nd)
	}
	return fx, nil
}

// tearDown stops a half-built fixture and returns cause.
func tearDown(ctx context.Context, fx *fixture, cause error) error {
	return errors.Join(cause, stopAll(ctx, fx.nodes))
}

// postBase makes set-up run i of purpose on fx's first server.
func postBase(ctx context.Context, b *bench, fx *fixture, purpose string, i int) (runReq, string, error) {
	r := runReq{Seed: configSeed(b.seed, purpose, i, fx.base.TraceYears)}
	fp, _, ok := b.cl.post(ctx, at{"", -1, 1}, fx.nodes[0], fx.base, r)
	if !ok {
		return r, "", fmt.Errorf("%s run %d failed", purpose, i)
	}
	return r, fp, nil
}

// artifactPath is the URL path of one experiment: a table in format, a
// figure as SVG. run names a completed run; empty means the base run.
func artifactPath(e core.Experiment, format, run string) string {
	q := ""
	if run != "" {
		q = "run=" + run
	}
	if e.Kind == core.KindFigure {
		if q != "" {
			q = "?" + q
		}
		return "/v1/figures/" + e.ID + q
	}
	if q != "" {
		q = "&" + q
	}
	return "/v1/tables/" + e.ID + "?format=" + format + q
}

// allKeys is every rendering of a run: each table in all four formats
// and each figure.
func allKeys(run string) []string {
	var out []string
	for _, e := range core.Registry() {
		if e.Kind == core.KindFigure {
			out = append(out, artifactPath(e, "svg", run))
			continue
		}
		for _, f := range []string{"json", "txt", "csv", "md"} {
			out = append(out, artifactPath(e, f, run))
		}
	}
	return out
}

// render produces what the servers serve for one experiment of a run: a
// table as JSON or a figure as SVG.
func render(arts *core.Artifacts, e core.Experiment) ([]byte, error) {
	var buf bytes.Buffer
	if e.Kind == core.KindFigure {
		err := e.Figure(arts, &buf)
		return buf.Bytes(), err
	}
	tab, err := e.Table(arts)
	if err != nil {
		return nil, err
	}
	err = tab.WriteJSON(&buf)
	return buf.Bytes(), err
}

// closedLoop calls iter with 0, 1, 2, ... until window has passed, each
// call starting when the previous one returns, and returns how long
// that took.
func closedLoop(ctx context.Context, window time.Duration, iter func(k int)) (time.Duration, error) {
	start := time.Now()
	for k := 0; time.Since(start) < window; k++ {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		iter(k)
	}
	return time.Since(start), nil
}

// ---- cold-study ----

func coldSetup(ctx context.Context, b *bench) (*fixture, error) {
	fx, err := boot(ctx, b.p.study, 1)
	if err != nil {
		return nil, err
	}
	// The warm-up config is the same for every workload seed: a cold
	// run's cost varies up to 3x with its seed, and set-up time should
	// not.
	warmup := runReq{Seed: configSeed(0, "cold-warmup", 0, fx.base.TraceYears)}
	if _, _, ok := b.cl.post(ctx, at{"", -1, 1}, fx.nodes[0], fx.base, warmup); !ok {
		return nil, tearDown(ctx, fx, errors.New("warm-up run failed"))
	}
	return fx, nil
}

func coldWindow(ctx context.Context, b *bench, fx *fixture) (samples, error) {
	const op = "op.cold-study"
	var s samples
	n := fx.nodes[0]
	var err error
	s.elapsed, err = closedLoop(ctx, b.p.window, func(k int) {
		start := time.Now()
		defer func() { b.rec.add(op, "", start, time.Now(), k, 1) }()
		r := runReq{Seed: configSeed(b.seed, "cold", k, fx.base.TraceYears)}
		fp, d, ok := b.cl.post(ctx, at{op, k, 1}, n, fx.base, r)
		s.op = append(s.op, d)
		if !ok {
			return
		}
		t5 := artifactPath(mustLookup("T5"), "json", fp)
		rep, d, ok := b.cl.get(ctx, at{op, k, 1}, "http.get.table", n.url+t5, "", "")
		s.aux = append(s.aux, d)
		if !ok {
			return
		}
		s.good++
		if k == 0 {
			fx.refs = append(fx.refs, reference{req: r, ids: []string{"T5"}, bodies: [][]byte{rep.body}})
		}
	})
	return s, err
}

// verifyRefs compares the kept server answers with an in-process run of
// the same config, without a stage cache, byte for byte.
func verifyRefs(ctx context.Context, b *bench, fx *fixture) error {
	for _, ref := range fx.refs {
		arts, err := core.RunContext(ctx, ref.req.config(fx.base))
		if err != nil {
			return fmt.Errorf("in-process reference run: %w", err)
		}
		for i, id := range ref.ids {
			want, err := render(arts, mustLookup(id))
			if err == nil && !bytes.Equal(ref.bodies[i], want) {
				err = fmt.Errorf("%s of seed %d differs from the in-process render", id, ref.req.Seed)
			}
			b.chk.record(err)
		}
	}
	return nil
}

// mustLookup returns a registered experiment; the IDs the harness names
// are fixed, so a miss is a bug.
func mustLookup(id string) core.Experiment {
	e, err := core.Lookup(id)
	if err != nil {
		panic(err)
	}
	return e
}

// ---- whatif-report ----

func whatifSetup(ctx context.Context, b *bench) (*fixture, error) {
	fx, err := boot(ctx, b.p.study, 1)
	if err != nil {
		return nil, err
	}
	for i := 0; i < baseRuns; i++ {
		r, _, err := postBase(ctx, b, fx, "whatif-base", i)
		if err != nil {
			return nil, tearDown(ctx, fx, err)
		}
		fx.bases = append(fx.bases, r)
	}
	return fx, nil
}

// whatifFields are the survey-side fields a session changes, in turn.
var whatifFields = []string{"n2011", "n2024", "panelN", "noiseRate"}

// whatifRequest is session j's run: base run j mod len(bases) with one
// survey field raised by a step no earlier session of that base and
// field used, so no fingerprint repeats.
func whatifRequest(bases []runReq, base core.Config, j int) runReq {
	r := bases[j%len(bases)]
	step := j/(len(bases)*len(whatifFields)) + 1
	switch whatifFields[j/len(bases)%len(whatifFields)] {
	case "n2011":
		v := base.N2011 + step
		r.N2011 = &v
	case "n2024":
		v := base.N2024 + step
		r.N2024 = &v
	case "panelN":
		v := base.PanelN + step
		r.PanelN = &v
	default:
		v := base.NoiseRate + float64(step)*1e-4
		r.NoiseRate = &v
	}
	return r
}

func whatifWindow(ctx context.Context, b *bench, fx *fixture) (samples, error) {
	const op = "op.whatif-report"
	var s samples
	n := fx.nodes[0]
	exps := core.Registry()
	var err error
	s.elapsed, err = closedLoop(ctx, b.p.window, func(j int) {
		start := time.Now()
		defer func() { b.rec.add(op, "", start, time.Now(), j, 1) }()
		r := whatifRequest(fx.bases, fx.base, j)
		fp, d, ok := b.cl.post(ctx, at{op, j, 1}, n, fx.base, r)
		s.aux = append(s.aux, d)
		keep := j < b.p.refSessions
		ref := reference{req: r}
		for _, e := range exps {
			if !ok {
				break
			}
			name := "http.get.table"
			if e.Kind == core.KindFigure {
				name = "http.get.figure"
			}
			var rep reply
			rep, _, ok = b.cl.get(ctx, at{op, j, 1}, name, n.url+artifactPath(e, "json", fp), "", "")
			if keep {
				ref.ids, ref.bodies = append(ref.ids, e.ID), append(ref.bodies, rep.body)
			}
		}
		s.op = append(s.op, time.Since(start))
		if !ok {
			return
		}
		s.good++
		if keep {
			fx.refs = append(fx.refs, ref)
		}
	})
	return s, err
}

// ---- browse ----

func browseSetup(ctx context.Context, b *bench) (*fixture, error) {
	fx, err := boot(ctx, b.p.study, 1)
	if err != nil {
		return nil, err
	}
	n := fx.nodes[0]
	for i := 0; i < baseRuns; i++ {
		_, fp, err := postBase(ctx, b, fx, "browse-base", i)
		if err != nil {
			return nil, tearDown(ctx, fx, err)
		}
		for _, path := range allKeys(fp) {
			rep, _, ok := b.cl.get(ctx, at{"", -1, 1}, "http.get.render", n.url+path, "", "")
			if !ok {
				return nil, tearDown(ctx, fx, fmt.Errorf("rendering %s failed", path))
			}
			fx.keys = append(fx.keys, key{path: path, etag: rep.etag})
		}
	}
	return fx, nil
}

// keySequence draws n key indices over nKeys keys, Zipf(1.1) over a
// seed-shuffled popularity order, and marks about a quarter of the
// requests as revalidations that send If-None-Match.
func keySequence(seed uint64, nKeys, n int) (keys []int, revalidate []bool) {
	r := rng.New(seed).SplitNamed("browse-keys")
	order := make([]int, nKeys)
	for i := range order {
		order[i] = i
	}
	rng.Shuffle(r, order)
	z := rng.NewZipf(nKeys, 1.1)
	keys, revalidate = make([]int, n), make([]bool, n)
	for i := range keys {
		keys[i] = order[z.Rank(r)]
		revalidate[i] = r.Bool(0.25)
	}
	return keys, revalidate
}

func browseWindow(ctx context.Context, b *bench, fx *fixture) (samples, error) {
	var s samples
	n := fx.nodes[0]
	half := b.p.window / 2
	nLo := int(b.p.loRPS * half.Seconds())
	nHi := int(b.p.hiRPS * half.Seconds())
	keys, revalidate := keySequence(b.seed, len(fx.keys), nLo+nHi)
	phase := func(rate float64, first, count int) ([]time.Duration, []bool, error) {
		lat, ok, late, err := openLoop(ctx, time.Now(), rate, count, connsPerServer, func(ctx context.Context, i, worker int) bool {
			k := fx.keys[keys[first+i]]
			inm := ""
			if revalidate[first+i] {
				inm = k.etag
			}
			_, _, ok := b.cl.get(ctx, at{"", first + i, worker + 1}, "op.browse", n.url+k.path, inm, k.etag)
			return ok
		})
		s.late = max(s.late, late)
		return lat, ok, err
	}
	lo, _, err := phase(b.p.loRPS, 0, nLo)
	if err != nil {
		return samples{}, err
	}
	hi, ok, err := phase(b.p.hiRPS, nLo, nHi)
	if err != nil {
		return samples{}, err
	}
	s.aux, s.op, s.elapsed = lo, hi, half
	for i, d := range hi {
		if ok[i] && d <= onTime {
			s.good++
		}
	}
	return s, nil
}

// ---- ring ----

func ringSetup(ctx context.Context, b *bench) (*fixture, error) {
	base := ringConfig(b.p)
	base.Seed = configSeed(b.seed, "ring-base", 0, base.TraceYears)
	fx, err := boot(ctx, base, ringSize)
	if err != nil {
		return nil, err
	}
	for _, n := range fx.nodes {
		if err := awaitQuorum(ctx, b.cl, n, len(fx.nodes)); err != nil {
			return nil, tearDown(ctx, fx, err)
		}
	}
	urls := make([]string, len(fx.nodes))
	for i, n := range fx.nodes {
		urls[i] = n.url
	}
	auth := slices.Index(urls, cluster.NewRing(urls, 0).Owner(base.Fingerprint()))
	for _, path := range allKeys("") {
		rep, _, ok := b.cl.get(ctx, at{"", -1, 1}, "http.get.render", fx.nodes[auth].url+path, "", "")
		if !ok {
			return nil, tearDown(ctx, fx, fmt.Errorf("rendering %s on the authority failed", path))
		}
		fx.keys = append(fx.keys, key{path: path, etag: rep.etag})
	}
	for k := range fx.keys {
		for i := range fx.nodes {
			if i != auth {
				fx.fills = append(fx.fills, fill{node: i, key: k})
			}
		}
	}
	return fx, nil
}

// ringWarmup posts the untimed warm-up runs, in turn to each replica.
func ringWarmup(ctx context.Context, b *bench, fx *fixture) error {
	for k := 0; k < ringWarmups; k++ {
		r := runReq{Seed: configSeed(b.seed, "ring-warmup", k, fx.base.TraceYears)}
		fx.posts++
		if _, _, ok := b.cl.post(ctx, at{"", -1, 1}, fx.nodes[k%len(fx.nodes)], fx.base, r); !ok {
			return fmt.Errorf("ring warm-up run %d failed", k)
		}
	}
	return nil
}

// awaitQuorum polls n's /readyz until it sees all size members healthy.
func awaitQuorum(ctx context.Context, c *client, n *node, size int) error {
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		rep, _, err := c.do(ctx, at{"", -1, 1}, "http.get.readyz", http.MethodGet, n.url+"/readyz", nil, nil)
		var body struct {
			QuorumHealthy int `json:"quorumHealthy"`
			QuorumTotal   int `json:"quorumTotal"`
		}
		if err == nil && rep.status == http.StatusOK && json.Unmarshal(rep.body, &body) == nil &&
			body.QuorumHealthy == size && body.QuorumTotal == size {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s never saw a healthy ring of %d: %w", n.url, size, ctx.Err())
		case <-tick.C:
		}
	}
}

// fillNext makes the next first-touch fill and checks the replica
// serves the authority's ETag.
func fillNext(ctx context.Context, b *bench, fx *fixture, where at) time.Duration {
	f := fx.fills[fx.next]
	fx.next++
	k := fx.keys[f.key]
	_, d, _ := b.cl.get(ctx, where, "http.get.fill", fx.nodes[f.node].url+k.path, "", k.etag)
	return d
}

func ringWindow(ctx context.Context, b *bench, fx *fixture) (samples, error) {
	const op = "op.ring"
	var s samples
	var err error
	s.elapsed, err = closedLoop(ctx, b.p.window, func(k int) {
		start := time.Now()
		defer func() { b.rec.add(op, "", start, time.Now(), k, 1) }()
		r := runReq{Seed: configSeed(b.seed, "ring", k, fx.base.TraceYears)}
		_, d, ok := b.cl.post(ctx, at{op, k, 1}, fx.nodes[k%len(fx.nodes)], fx.base, r)
		fx.posts++
		s.op = append(s.op, d)
		if ok {
			s.good++
		}
		for i := 0; i < fillsPerIter && fx.next < len(fx.fills); i++ {
			s.aux = append(s.aux, fillNext(ctx, b, fx, at{op, k, 1}))
		}
	})
	return s, err
}

// ringVerify makes the fills the window left, so every base key's ETag
// is compared on every replica, and checks the ring ran the pipeline
// exactly once per POST plus once for the base run.
func ringVerify(ctx context.Context, b *bench, fx *fixture) error {
	for fx.next < len(fx.fills) {
		fillNext(ctx, b, fx, at{"", -1, 1})
	}
	total, err := b.cl.scrapeAll(ctx, fx.nodes)
	if err != nil {
		return err
	}
	runs := total.sum("rcpt_pipeline_runs_total")
	if want := float64(fx.posts + 1); runs != want {
		err = fmt.Errorf("the ring ran the pipeline %.0f times for %d POSTs plus the base run", runs, fx.posts)
	}
	b.chk.record(err)
	return nil
}
