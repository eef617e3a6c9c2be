package main

import (
	"context"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/modlog"
	"repro/internal/parallel"
	"repro/internal/population"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/stagecache"
	"repro/internal/survey"
	"repro/internal/table"
	"repro/internal/trace"
	"repro/internal/weighting"
)

// stageKinds are the pipeline stage kinds the probe reports, each the
// stage name with its year and replica suffix removed.
var stageKinds = []string{"cohort", "panel", "rake", "cohort-table", "trace", "modlog",
	"modlog-merge", "sim-policy", "sim-fcfs", "sim-conservative"}

// stageSuffix is a stage name's year and replica suffix.
var stageSuffix = regexp.MustCompile(`-\d{4}(-rep\d+)?$`)

// simPolicies are the scheduler runs the probe times: the pipeline's
// policy run and its two baselines, plus FCFS under fairshare.
var simPolicies = []struct {
	name string
	opt  sched.Options
}{
	{"easy-fairshare", sched.Options{Policy: sched.EASYBackfill, Fairshare: true}},
	{"fcfs", sched.Options{Policy: sched.FCFS}},
	{"conservative", sched.Options{Policy: sched.ConservativeBackfill}},
	{"fcfs-fairshare", sched.Options{Policy: sched.FCFS, Fairshare: true}},
}

// timedCache is the stage cache the probe's runs use: the production
// in-memory store with every load and store timed. It keeps its calls
// itself rather than holding the recorder, so no clock reading rides
// into the pipeline with the cache.
type timedCache struct {
	inner *stagecache.Cache

	mu          sync.Mutex
	calls       []rawSpan
	load, store time.Duration
	stored      int64 // payload bytes stored
}

func (c *timedCache) Load(key string) ([]byte, bool) {
	start := time.Now()
	payload, ok := c.inner.Load(key)
	c.account("probe.stagecache.load", start, 0)
	return payload, ok
}

func (c *timedCache) Store(key string, payload []byte) {
	start := time.Now()
	c.inner.Store(key, payload)
	c.account("probe.stagecache.store", start, len(payload))
}

func (c *timedCache) Delete(key string) { c.inner.Delete(key) }

// account keeps one call and adds its time to the load or store total.
func (c *timedCache) account(name string, start time.Time, stored int) {
	end := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls = append(c.calls, rawSpan{name: name, start: start, end: end})
	if stored > 0 {
		c.store += end.Sub(start)
		c.stored += int64(stored)
	} else {
		c.load += end.Sub(start)
	}
}

// flush records the calls kept since the last flush as spans inside the
// run span named parent.
func (c *timedCache) flush(rec *recorder, parent string) {
	c.mu.Lock()
	calls := c.calls
	c.calls = nil
	c.mu.Unlock()
	for _, s := range calls {
		rec.add(s.name, parent, s.start, s.end, -1, 0)
	}
}

// probe calls each layer's public functions on cfg in-process, away from
// any server, records a span per call, and returns the per-layer
// timings: the stage graph of a cold run and a stage-cache-warm
// restore, the scheduler sims, every experiment's render, the trace
// payload codec, and the generators.
func probe(ctx context.Context, rec *recorder, cfg core.Config) (map[string]float64, error) {
	m := map[string]float64{}
	store, err := stagecache.New(stagecache.Options{})
	if err != nil {
		return nil, err
	}
	tc := &timedCache{inner: store}

	// A cold run: every stage executes and stores its payload.
	const coldSpan, warmSpan = "probe.core.run", "probe.core.warm"
	var mu sync.Mutex
	var stages []stageInterval
	runStart := time.Now()
	observe := func(stage string, seconds float64) {
		end := time.Now()
		start := end.Add(-time.Duration(seconds * float64(time.Second)))
		rec.add("stage."+stage, coldSpan, start, end, -1, 0)
		mu.Lock()
		stages = append(stages, stageInterval{stage, start.Sub(runStart).Seconds(), end.Sub(runStart).Seconds()})
		mu.Unlock()
	}
	cold, err := core.RunWithOptions(ctx, cfg, core.RunOptions{Observer: observe, StageCache: tc})
	runEnd := time.Now()
	wall := runEnd.Sub(runStart).Seconds()
	rec.add(coldSpan, "", runStart, runEnd, -1, 0)
	tc.flush(rec, coldSpan)
	if err != nil {
		return nil, err
	}
	sort.Slice(stages, func(i, j int) bool { return stages[i].name < stages[j].name })
	busy := 0.0
	for _, kind := range stageKinds {
		m["core.stage_s."+kind] = 0
	}
	for _, s := range stages {
		busy += s.end - s.start
		if kind := stageSuffix.ReplaceAllString(s.name, ""); kind != "jobs-merge" {
			m["core.stage_s."+kind] += s.end - s.start
		}
	}
	path, pathBusy, _ := criticalPath(stages)
	simBusy := 0.0
	for _, i := range path {
		if strings.HasPrefix(stages[i].name, "sim-") {
			simBusy += stages[i].end - stages[i].start
		}
	}
	m["core.critical_path_s"] = pathBusy
	m["core.critical_path_sched_share"] = ratio(simBusy, pathBusy)
	m["core.graph_busy_share"] = ratio(busy, wall*float64(parallel.Workers()))

	// A warm restore of the same config: every stage loads its payload.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	warmStart := time.Now()
	warm, err := core.RunWithOptions(ctx, cfg, core.RunOptions{StageCache: tc})
	warmEnd := time.Now()
	runtime.ReadMemStats(&after)
	rec.add(warmSpan, "", warmStart, warmEnd, -1, 0)
	tc.flush(rec, warmSpan)
	if err != nil {
		return nil, err
	}
	m["core.warm_restore_ms"] = ms(warmEnd.Sub(warmStart))
	m["core.warm_restore_alloc_mb"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	tc.mu.Lock()
	m["stagecache.load_ms"], m["stagecache.store_ms"] = ms(tc.load), ms(tc.store)
	m["stagecache.payload_mb"] = float64(tc.stored) / 1e6
	tc.mu.Unlock()

	// The scheduler on the sim year's jobs.
	jobs := cold.JobsByYr[cfg.SimYear]
	simTotal := 0.0
	for _, pol := range simPolicies {
		d, err := timed(rec, "probe.sched."+pol.name, func() error {
			_, err := sched.SimulateTable(sched.DefaultCampusCluster(), jobs, pol.opt)
			return err
		})
		if err != nil {
			return nil, err
		}
		m["sched.sim_ms."+pol.name] = ms(d)
		simTotal += d.Seconds()
	}
	m["sched.jobs_per_s"] = ratio(float64(len(simPolicies)*jobs.Len(table.Exact)), simTotal)

	// Every experiment rendered from the warm run's fresh artifacts.
	renderTotal := time.Duration(0)
	for _, e := range core.Registry() {
		d, err := timed(rec, "probe.render."+e.ID, func() error {
			_, err := render(warm, e)
			return err
		})
		if err != nil {
			return nil, err
		}
		m["report.render_ms."+e.ID] = ms(d)
		renderTotal += d
	}
	m["report.render_total_ms"] = ms(renderTotal)

	// The columnar codec, on the trace stage payload of the sim year.
	var payload []byte
	enc, err := medianOf(rec, "probe.table.encode", func() (err error) {
		payload, err = core.EncodeTraceStagePayload(jobs)
		return err
	})
	if err != nil {
		return nil, err
	}
	dec, err := medianOf(rec, "probe.table.decode", func() error {
		_, err := core.DecodeTraceStagePayload(payload)
		return err
	})
	if err != nil {
		return nil, err
	}
	mb := float64(len(payload)) / 1e6
	m["table.encode_mb_s"], m["table.decode_mb_s"] = ratio(mb, enc.Seconds()), ratio(mb, dec.Seconds())

	// The generators behind the trace, telemetry, cohort and rake stages.
	r := rng.New(cfg.Seed)
	traceRNG, modlogRNG, cohortSeed := r.SplitNamed("trace"), r.SplitNamed("modlog"), r.SplitNamed("cohort").Uint64()
	var cohort []*survey.Response
	model := population.Model2024()
	for _, g := range []struct {
		name string
		fn   func() error
	}{
		{"trace.generate_ms", func() error {
			_, err := trace.CampusModel(cfg.SimYear).Generate(traceRNG, 1)
			return err
		}},
		{"modlog.generate_ms", func() error {
			_, err := modlog.CampusModulesModel(cfg.SimYear).Generate(modlogRNG)
			return err
		}},
		{"population.generate_ms", func() error {
			gen, err := population.NewGenerator(model)
			if err == nil {
				cohort, err = gen.GenerateParallel(cohortSeed, cfg.N2024, cfg.Workers)
			}
			return err
		}},
		{"weighting.rake_ms", func() error { return rake(cohort, model) }},
	} {
		d, err := timed(rec, "probe."+g.name[:len(g.name)-3], g.fn)
		if err != nil {
			return nil, err
		}
		m[g.name] = ms(d)
	}
	return m, nil
}

// rake post-stratifies a cohort to the model's frame the way the
// pipeline's rake stage does.
func rake(cohort []*survey.Response, model *population.Model) error {
	var margins []weighting.Margin
	for _, fm := range weighting.FrameMargins(model.FieldShare, model.CareerShare) {
		rm, err := weighting.RestrictToObserved(fm, cohort)
		if err != nil {
			return err
		}
		margins = append(margins, rm)
	}
	_, err := weighting.Rake(cohort, margins, weighting.Options{TrimRatio: 6})
	return err
}

// timed runs fn under a probe span and returns how long it took.
func timed(rec *recorder, name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	rec.add(name, "", start, end, -1, 0)
	return end.Sub(start), err
}

// medianOf times fn five times and returns the median.
func medianOf(rec *recorder, name string, fn func() error) (time.Duration, error) {
	ds := make([]time.Duration, 5)
	for i := range ds {
		d, err := timed(rec, name, fn)
		if err != nil {
			return 0, err
		}
		ds[i] = d
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2], nil
}
