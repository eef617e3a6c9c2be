package rcpt

// One benchmark per reconstructed table and figure (R-T1..T7, R-F1..F8),
// plus the three design-choice ablations from DESIGN.md. Each iteration
// of a per-experiment bench builds and renders its experiment on fresh
// Artifacts, restored from a warm stage cache with the timer stopped:
// tables and the aggregates behind them are memoized per Artifacts, so
// a shared run would time only the formatting after its first build.
// The untimed restore dominates the wall time of fast experiments; a
// fixed count (-benchtime 20x) bounds it. The ablations measure the
// underlying computation choices.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/population"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/stagecache"
	"repro/internal/survey"
	"repro/internal/trace"
	"repro/internal/weighting"
)

var benchConfig = Config{
	Seed:       42,
	N2011:      200,
	N2024:      600,
	TraceYears: []int{2011, 2015, 2019, 2024},
	SimYear:    2024,
	Policy:     EASYBackfill,
	Rake:       true,
	PanelN:     300,
	NoiseRate:  0.05,
}

var (
	benchOnce  sync.Once
	benchArts  *Artifacts
	benchCache *stagecache.Cache
	benchErr   error
)

// benchArtifacts runs benchConfig once, filling benchCache with every
// stage it computed.
func benchArtifacts(b *testing.B) *Artifacts {
	b.Helper()
	benchOnce.Do(func() {
		if benchCache, benchErr = stagecache.New(stagecache.Options{}); benchErr != nil {
			return
		}
		benchArts, benchErr = core.RunWithOptions(context.Background(), benchConfig,
			core.RunOptions{StageCache: benchCache})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchArts
}

// readOnlyCache serves a warm cache's entries and keeps nothing new, so
// T16's sweep halves are never cached and every build runs the sweep.
type readOnlyCache struct{ core.StageCache }

func (readOnlyCache) Store(string, []byte) {}
func (readOnlyCache) Delete(string)        {}

func benchExperiment(b *testing.B, id string) {
	benchArtifacts(b)
	e, err := Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a, err := core.RunWithOptions(context.Background(), benchConfig,
			core.RunOptions{StageCache: readOnlyCache{benchCache}})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		switch e.Kind {
		case KindTable:
			tab, err := e.Table(a)
			if err != nil {
				b.Fatal(err)
			}
			if err := tab.WriteASCII(io.Discard); err != nil {
				b.Fatal(err)
			}
		case KindFigure:
			if err := e.Figure(a, io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTable1(b *testing.B)  { benchExperiment(b, "T1") }
func BenchmarkTable2(b *testing.B)  { benchExperiment(b, "T2") }
func BenchmarkTable3(b *testing.B)  { benchExperiment(b, "T3") }
func BenchmarkTable4(b *testing.B)  { benchExperiment(b, "T4") }
func BenchmarkTable5(b *testing.B)  { benchExperiment(b, "T5") }
func BenchmarkTable6(b *testing.B)  { benchExperiment(b, "T6") }
func BenchmarkTable7(b *testing.B)  { benchExperiment(b, "T7") }
func BenchmarkFigure1(b *testing.B) { benchExperiment(b, "F1") }
func BenchmarkFigure2(b *testing.B) { benchExperiment(b, "F2") }
func BenchmarkFigure3(b *testing.B) { benchExperiment(b, "F3") }
func BenchmarkFigure4(b *testing.B) { benchExperiment(b, "F4") }
func BenchmarkFigure5(b *testing.B) { benchExperiment(b, "F5") }
func BenchmarkFigure6(b *testing.B) { benchExperiment(b, "F6") }
func BenchmarkFigure7(b *testing.B) { benchExperiment(b, "F7") }
func BenchmarkFigure8(b *testing.B) { benchExperiment(b, "F8") }

// Extension experiments (see DESIGN.md "extensions" rows).
func BenchmarkTable8(b *testing.B)   { benchExperiment(b, "T8") }
func BenchmarkTable9(b *testing.B)   { benchExperiment(b, "T9") }
func BenchmarkTable10(b *testing.B)  { benchExperiment(b, "T10") }
func BenchmarkFigure9(b *testing.B)  { benchExperiment(b, "F9") }
func BenchmarkFigure10(b *testing.B) { benchExperiment(b, "F10") }
func BenchmarkTable11(b *testing.B)  { benchExperiment(b, "T11") }
func BenchmarkFigure11(b *testing.B) { benchExperiment(b, "F11") }
func BenchmarkTable12(b *testing.B)  { benchExperiment(b, "T12") }
func BenchmarkTable13(b *testing.B)  { benchExperiment(b, "T13") }
func BenchmarkTable14(b *testing.B)  { benchExperiment(b, "T14") }
func BenchmarkTable15(b *testing.B)  { benchExperiment(b, "T15") }
func BenchmarkFigure12(b *testing.B) { benchExperiment(b, "F12") }
func BenchmarkTable16(b *testing.B)  { benchExperiment(b, "T16") }
func BenchmarkFigure13(b *testing.B) { benchExperiment(b, "F13") }

// BenchmarkAblationBackfill compares the scheduler with and without EASY
// backfill on the same 2024 trace and reports the wait/utilization
// deltas as custom metrics.
func BenchmarkAblationBackfill(b *testing.B) {
	a := benchArtifacts(b)
	jobs := a.JobsByYr[2024]
	cluster := sched.DefaultCampusCluster()
	var fcfsWait, easyWait, fcfsUtil, easyUtil float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := sched.SimulateTable(cluster, jobs, sched.Options{Policy: sched.FCFS})
		if err != nil {
			b.Fatal(err)
		}
		e, err := sched.SimulateTable(cluster, jobs, sched.Options{Policy: sched.EASYBackfill})
		if err != nil {
			b.Fatal(err)
		}
		fcfsWait, easyWait = f.Metrics.MeanWait, e.Metrics.MeanWait
		fcfsUtil, easyUtil = f.Metrics.AvgCPUUtil, e.Metrics.AvgCPUUtil
	}
	b.ReportMetric(fcfsWait, "fcfs-mean-wait-s")
	b.ReportMetric(easyWait, "easy-mean-wait-s")
	b.ReportMetric(fcfsUtil*100, "fcfs-cpu-util-%")
	b.ReportMetric(easyUtil*100, "easy-cpu-util-%")
}

// BenchmarkAblationConservative measures the conservative-backfill
// variant against EASY on the same trace (stricter reservations cost
// scheduling time and some backfill opportunity).
func BenchmarkAblationConservative(b *testing.B) {
	a := benchArtifacts(b)
	jobs := a.JobsByYr[2024]
	cluster := sched.DefaultCampusCluster()
	var consWait, consBackfills float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := sched.SimulateTable(cluster, jobs, sched.Options{Policy: sched.ConservativeBackfill})
		if err != nil {
			b.Fatal(err)
		}
		consWait = c.Metrics.MeanWait
		consBackfills = float64(c.Metrics.BackfillStarts)
	}
	b.ReportMetric(consWait, "cons-mean-wait-s")
	b.ReportMetric(consBackfills, "cons-backfills")
}

// BenchmarkAblationRaking measures how much post-stratification moves
// the estimates: the CS field share (directly distorted by response
// bias; the frame-true value is 10%) and the python share (nearly
// field-uniform, so raking barely moves it — the negative control).
func BenchmarkAblationRaking(b *testing.B) {
	g, err := population.NewGenerator(population.Model2024())
	if err != nil {
		b.Fatal(err)
	}
	ins := g.Instrument()
	var csRaw, csRaked, pyRaw, pyRaked float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := g.GenerateRespondents(rng.New(99), 600)
		if err != nil {
			b.Fatal(err)
		}
		share := func(qid, opt string) float64 {
			tab, err := ins.Tabulate(qid, rs)
			if err != nil {
				b.Fatal(err)
			}
			return tab.Share(opt)
		}
		csRaw = share(survey.QField, "computer science")
		pyRaw = share(survey.QLanguages, "python")
		m := population.Model2024()
		if _, err := weighting.Rake(rs, weighting.FrameMargins(m.FieldShare, m.CareerShare), weighting.Options{}); err != nil {
			b.Fatal(err)
		}
		csRaked = share(survey.QField, "computer science")
		pyRaked = share(survey.QLanguages, "python")
	}
	b.ReportMetric(csRaw*100, "unweighted-cs-%")
	b.ReportMetric(csRaked*100, "raked-cs-%")
	b.ReportMetric(pyRaw*100, "unweighted-python-%")
	b.ReportMetric(pyRaked*100, "raked-python-%")
}

// BenchmarkAblationParallelGen measures worker-count scaling of the
// deterministic population generator.
func BenchmarkAblationParallelGen(b *testing.B) {
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			g, err := population.NewGenerator(population.Model2024())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.GenerateParallel(7, 500, workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFullPipeline measures an end-to-end small study run.
func BenchmarkFullPipeline(b *testing.B) {
	cfg := Config{
		Seed: 1, N2011: 60, N2024: 120,
		TraceYears: []int{2011, 2024}, SimYear: 2024,
		Policy: EASYBackfill, Rake: true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunColdVsWarmStageCache measures incremental recomputation
// through the Merkle stage cache on the same small study as
// BenchmarkFullPipeline. "cold" fills a fresh cache every iteration
// (the overhead side: every stage computes and stores); "warm" restores
// every stage from a pre-filled cache, which holds the trace and
// telemetry tables, the sims and the panel as their payloads, so it
// times the hold and no first read; "policy-change" re-runs against a
// filled cache with one late-DAG parameter changed, so only the
// sim-policy stage recomputes. The warm/cold ns_per_op ratio in
// BENCH_incr.json is the headline speedup; artifact identity across
// the cache is pinned by core's equivalence tests and spot-checked
// here via the accounting-table bytes, outside the timed loop.
func BenchmarkRunColdVsWarmStageCache(b *testing.B) {
	base := core.Config{
		Seed: 1, N2011: 60, N2024: 120,
		TraceYears: []int{2011, 2024}, SimYear: 2024,
		Policy: EASYBackfill, Rake: true,
	}
	newCache := func(b *testing.B) *stagecache.Cache {
		c, err := stagecache.New(stagecache.Options{})
		if err != nil {
			b.Fatal(err)
		}
		return c
	}
	run := func(b *testing.B, cfg core.Config, cache core.StageCache) *core.Artifacts {
		a, err := core.RunWithOptions(context.Background(), cfg, core.RunOptions{StageCache: cache})
		if err != nil {
			b.Fatal(err)
		}
		return a
	}
	accounting := func(b *testing.B, a *Artifacts) []byte {
		var buf bytes.Buffer
		if err := trace.WriteAccountingTable(&buf, a.Jobs); err != nil {
			b.Fatal(err)
		}
		return buf.Bytes()
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cache := newCache(b)
			b.StartTimer()
			run(b, base, cache)
		}
	})
	b.Run("warm", func(b *testing.B) {
		cache := newCache(b)
		want := accounting(b, run(b, base, cache))
		b.ResetTimer()
		var got *Artifacts
		for i := 0; i < b.N; i++ {
			got = run(b, base, cache)
		}
		b.StopTimer()
		if !bytes.Equal(accounting(b, got), want) {
			b.Fatal("warm run diverged from the cold run that filled its cache")
		}
	})
	b.Run("policy-change", func(b *testing.B) {
		cache := newCache(b)
		run(b, base, cache)
		changed := base
		changed.Policy = FCFS
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, changed, cache)
		}
	})
}

// BenchmarkRunStaged and BenchmarkRunSequential compare the stage-graph
// executor with multiple workers against the sequential reference
// execution of the same graph. Both produce byte-identical artifacts
// (see core's TestRunWorkerCountEquivalence); only wall-clock differs,
// and only when GOMAXPROCS allows real parallelism.
func BenchmarkRunStaged(b *testing.B) {
	cfg := Config{
		Seed: 1, N2011: 60, N2024: 120,
		TraceYears: []int{2011, 2024}, SimYear: 2024,
		Policy: EASYBackfill, Rake: true,
		Workers: 8,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunSequential(b *testing.B) {
	cfg := Config{
		Seed: 1, N2011: 60, N2024: 120,
		TraceYears: []int{2011, 2024}, SimYear: 2024,
		Policy: EASYBackfill, Rake: true,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunSequential(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceGeneration measures the accounting generator alone.
func BenchmarkTraceGeneration(b *testing.B) {
	m := trace.CampusModel(2024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Generate(rng.New(uint64(i)), 0); err != nil {
			b.Fatal(err)
		}
	}
}
