// Package core orchestrates the rcpt study pipeline: generate (or load)
// the two survey cohorts, rake them to the institutional frame, generate
// the multi-year cluster accounting and module-load telemetry, run the
// scheduler simulation, and expose everything as Artifacts that the
// experiment registry (experiments.go) turns into the paper's tables and
// figures.
package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/modlog"
	"repro/internal/parallel"
	"repro/internal/population"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/survey"
	"repro/internal/table"
	"repro/internal/trace"
	"repro/internal/weighting"
)

// Config parameterizes one full study run. The zero value is not valid;
// start from DefaultConfig.
type Config struct {
	Seed  uint64
	N2011 int // respondents in the 2011 cohort
	N2024 int // respondents in the 2024 cohort
	// TraceYears are the calendar years of synthetic accounting data
	// (each one representative month).
	TraceYears []int
	// SimYear is the trace year fed to the scheduler simulation.
	SimYear int
	Policy  sched.Policy
	// Rake enables post-stratification to the frame (on by default; the
	// ablation turns it off).
	Rake bool
	// PanelN is the longitudinal panel size (people observed in both
	// waves); 0 disables the panel experiments.
	PanelN int
	// NoiseRate injects synthetic data-quality problems (duplicates,
	// straight-liners, unit errors) into that fraction of each cohort
	// before screening; 0 disables injection. Screening itself always
	// runs, and hard-flagged responses are dropped before weighting.
	NoiseRate float64
	Workers   int // parallel generation fan-out; <=0 means GOMAXPROCS

	// TraceScale multiplies the synthetic accounting volume: each trace
	// year is generated TraceScale times ("replicas"), each replica from
	// its own named rng stream with submit times strided by a full year
	// so replica r's jobs all land after replica r-1's. Replica 0 is
	// bit-identical to the unscaled trace, and 0 or 1 means unscaled —
	// which is why the fingerprint only encodes TraceScale when > 1.
	// Replicas are separate pipeline stages, so a 100× year generates
	// across workers, each replica into a column table of its own.
	TraceScale int
}

// traceScale normalizes TraceScale (0 and 1 both mean unscaled).
func (c Config) traceScale() int {
	if c.TraceScale <= 1 {
		return 1
	}
	return c.TraceScale
}

// DefaultConfig returns the standard study configuration: cohort sizes
// echo the reconstructed study (200 in 2011, 600 in 2024), telemetry
// covers 2011–2024 every other year plus both endpoints.
func DefaultConfig() Config {
	return Config{
		Seed:       42,
		N2011:      200,
		N2024:      600,
		TraceYears: []int{2011, 2013, 2015, 2017, 2019, 2021, 2023, 2024},
		SimYear:    2024,
		Policy:     sched.EASYBackfill,
		Rake:       true,
		PanelN:     300,
		NoiseRate:  0.05,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N2011 <= 0 || c.N2024 <= 0 {
		return fmt.Errorf("core: cohort sizes must be positive, got %d and %d", c.N2011, c.N2024)
	}
	if len(c.TraceYears) == 0 {
		return errors.New("core: no trace years")
	}
	seen := map[int]bool{}
	simYearPresent := false
	for _, y := range c.TraceYears {
		if y < 2000 || y > 2100 {
			return fmt.Errorf("core: implausible trace year %d", y)
		}
		if seen[y] {
			return fmt.Errorf("core: duplicate trace year %d", y)
		}
		seen[y] = true
		if y == c.SimYear {
			simYearPresent = true
		}
	}
	if !simYearPresent {
		return fmt.Errorf("core: sim year %d not among trace years %v", c.SimYear, c.TraceYears)
	}
	if c.NoiseRate < 0 || c.NoiseRate > 0.5 {
		return fmt.Errorf("core: noise rate %g out of [0, 0.5]", c.NoiseRate)
	}
	if c.TraceScale < 0 || c.TraceScale > 100_000 {
		return fmt.Errorf("core: implausible trace scale %d", c.TraceScale)
	}
	return nil
}

// Artifacts is everything a study run produces; the experiment registry
// reads only from here, so a run is computed once and rendered many
// times.
type Artifacts struct {
	Config     Config
	Instrument *survey.Instrument

	Model2011, Model2024   *population.Model
	Cohort2011, Cohort2024 []*survey.Response
	Rake2011, Rake2024     weighting.Result

	// Jobs streams the whole multi-year accounting trace: the per-year
	// tables concatenated in TraceYears order (arrival order within each
	// year).
	Jobs trace.JobTable
	// JobsByYr holds the same jobs keyed by year (each a concatenation
	// of that year's TraceScale replica tables, in replica order).
	JobsByYr map[int]trace.JobTable
	ModAgg   []modlog.YearShares // telemetry aggregated per year
	// ModEventsSim holds the sim year's telemetry events in columnar
	// form, kept for the co-load analysis (T10).
	ModEventsSim modlog.EventTable
	// Quality2011 and Quality2024 report the data-quality screening run
	// on each cohort (after optional noise injection).
	Quality2011, Quality2024 survey.QualityReport
	// Panel holds the longitudinal members (nil when Config.PanelN == 0).
	Panel   []population.PanelMember
	Sim     *sched.Result // scheduler run on SimYear's jobs
	SimFCFS *sched.Result // FCFS baseline for the ablation
	// SimConservative is the conservative-backfill run for the policy
	// comparison table (T8).
	SimConservative *sched.Result

	// stageCache is the run's RunOptions.StageCache (nil: none). T16
	// keeps its sweep halves there, so a later config that shares one
	// cohort's seed and size renders from the cached half.
	stageCache StageCache

	// held is the deferred loads of the sims and the panel when a stage
	// cache hit holds them (hold.go); a render loads those it declares.
	held heldLoads

	// derived memoizes render-path aggregates (weighted tabulations,
	// per-year job summaries, co-load matrices) so the 30+ experiments
	// stop recomputing the same scans; see derived.go. It holds locks:
	// Artifacts must not be copied by value once in use.
	derived derivations
}

// Run executes the full pipeline as a concurrent stage graph (see
// buildGraph for the DAG). Deterministic in cfg.Seed for any worker
// count: every stage draws from an rng stream split by name before the
// graph starts, so scheduling order cannot perturb output. Run and
// RunSequential produce byte-identical artifacts.
func Run(cfg Config) (*Artifacts, error) {
	return RunWithOptions(context.Background(), cfg, RunOptions{})
}

// RunContext is Run with external cancellation: once ctx is done no new
// stage starts and ctx.Err() is returned (a stage error that happened
// first wins). In-flight stages are awaited before return — a cancelled
// run never strands goroutines.
func RunContext(ctx context.Context, cfg Config) (*Artifacts, error) {
	return RunWithOptions(ctx, cfg, RunOptions{})
}

// StageObserver receives per-stage wall-clock timings from a run. It is
// telemetry only (the serving layer feeds it into a metrics histogram)
// and may be called concurrently.
type StageObserver func(stage string, seconds float64)

// RunSequential executes the same stage graph one stage at a time, in a
// deterministic topological order. It is the reference implementation
// the staged/concurrent equivalence tests and benchmarks compare
// against; per-stage fan-out (cohort generation chunks) still honors
// cfg.Workers.
func RunSequential(cfg Config) (*Artifacts, error) {
	return RunWithOptions(context.Background(), cfg, RunOptions{sequential: true})
}

// RunOptions bundles the resilience and telemetry knobs of a run. The
// zero value reproduces plain Run. None of the options may influence
// artifact bytes: observers and events are telemetry, middleware is the
// fault-injection seam (a no-op in production), and retry re-executes
// idempotent stages whose rng streams are re-derived by name on every
// attempt.
type RunOptions struct {
	// Observer receives per-stage wall-clock timings.
	Observer StageObserver
	// Events receives resilience events (recovered panics, retries,
	// cancellation) from the stage graph.
	Events func(parallel.Event)
	// Middleware wraps every stage attempt; used by internal/fault to
	// inject deterministic failures at the attempt boundary.
	Middleware parallel.StageMiddleware
	// Retry re-attempts failed stages. Backoff jitter is drawn from the
	// run's own "retry" rng stream split by stage name, so delays — and
	// therefore artifacts — are deterministic for any worker count.
	Retry parallel.RetryPolicy

	// Steal, when set, is offered every stealable stage the run must
	// compute (see StealFunc); the cluster layer installs its dispatcher
	// here. A stolen payload holds exactly the bytes RunStage(cfg, stage)
	// returns, so a hook can change where work runs, never what the
	// artifacts contain. A hook error surfaces as a *parallel.StageError.
	Steal StealFunc

	// StageCache, when set, lets stages reuse outputs across runs by
	// Merkle-derived content key (see stagecache.go): a stage whose key
	// hits decodes the stored payload instead of executing its body (for
	// stealable stages that skips the Steal hook too), a miss computes
	// then stores. Like every other option it cannot influence artifact
	// bytes — a hit restores exactly the values the body would have
	// produced, and any cache fault (corruption, codec skew, store
	// failure) degrades to recomputation.
	StageCache StageCache

	sequential bool
}

// RunWithOptions executes the pipeline under ctx with the given
// resilience options. Artifacts are byte-identical to Run for any
// worker count and any retry/fault outcome that ends in success.
func RunWithOptions(ctx context.Context, cfg Config, opts RunOptions) (*Artifacts, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := newArtifacts(cfg)
	a.stageCache = opts.StageCache
	g, err := buildGraph(ctx, cfg, a, opts.Steal, newStageCacher(opts.StageCache))
	if err != nil {
		return nil, err
	}
	if opts.Observer != nil {
		g.SetObserver(opts.Observer)
	}
	if opts.Events != nil {
		g.SetEventHook(opts.Events)
	}
	if opts.Middleware != nil {
		g.SetMiddleware(opts.Middleware)
	}
	if opts.Retry.MaxAttempts > 1 {
		// The jitter root is split from the same seed as the pipeline
		// root but under its own name, so retry timing shares the
		// determinism contract without touching any generation stream.
		g.SetRetry(opts.Retry, rng.New(cfg.Seed).SplitNamed("retry"))
	}
	stageWorkers := cfg.Workers
	if opts.sequential {
		stageWorkers = 1
	}
	if err := g.RunContext(ctx, stageWorkers); err != nil {
		return nil, err
	}
	return a, nil
}

// newArtifacts returns the empty artifact set a run of cfg fills in.
func newArtifacts(cfg Config) *Artifacts {
	return &Artifacts{
		Config:     cfg,
		Instrument: survey.Canonical(),
		Model2011:  population.Model2011(),
		Model2024:  population.Model2024(),
		JobsByYr:   map[int]trace.JobTable{},
	}
}

// buildGraph adds every stage spec of cfg to a fresh graph, each
// through sc.add — its Merkle key derived from the same deps the graph
// orders it by, its body the one cached, stealable exec path. ctx
// reaches only the steal hook (remote dispatch needs a cancellation
// signal); every in-process stage ignores it — the graph runner already
// stops launching stages once ctx is done.
func buildGraph(ctx context.Context, cfg Config, a *Artifacts, steal StealFunc, sc *stageCacher) (*parallel.Graph, error) {
	specs, err := stages(cfg, a)
	if err != nil {
		return nil, err
	}
	g := parallel.NewGraph()
	for _, s := range specs {
		sc.add(ctx, g, cfg, s, steal)
	}
	return g, nil
}

// stages declares the pipeline DAG, in topological order:
//
//	cohort-2011 ──► rake-2011
//	cohort-2024 ──► rake-2024
//	panel
//	trace-<y>[-rep<r>] (per year × replica) ──► jobs-merge
//	trace-<simyear>[-rep<r>] ──► sim-policy │ sim-fcfs │ sim-conservative
//	modlog-<y> (per year) ──► modlog-merge
//
// Every stage owns the artifact fields its set writes; concurrent
// stages never share mutable state. Every rng stream is split off the
// seed-derived root *by name* inside each stage's run, at the top of
// every attempt: SplitNamed never advances the parent, so the bytes
// match deriving up front, while a retry re-derives a fresh stream —
// which makes every stage idempotent (retryable) and lets a stage
// without deps run standalone (RunStage). jobs-merge is uncached: it is
// pure wiring over tables the trace stages already provide.
func stages(cfg Config, a *Artifacts) ([]spec, error) {
	root := rng.New(cfg.Seed)
	type cohortSlots struct {
		year    string
		n       int
		model   *population.Model
		out     *[]*survey.Response
		quality *survey.QualityReport
		rake    *weighting.Result
	}
	cohorts := []cohortSlots{
		{"2011", cfg.N2011, a.Model2011, &a.Cohort2011, &a.Quality2011, &a.Rake2011},
		{"2024", cfg.N2024, a.Model2024, &a.Cohort2024, &a.Quality2024, &a.Rake2024},
	}
	var specs []spec

	// 1. Survey cohorts: generate, optionally inject noise, screen, and
	// drop hard-flagged responses. The payload is encoded as the stage
	// ends, so it holds pre-raking weights; the rake stage's own payload
	// restores the post-raking ones.
	for _, c := range cohorts {
		gen, err := population.NewGenerator(c.model)
		if err != nil {
			return nil, fmt.Errorf("core: %s generator: %w", c.year, err)
		}
		specs = append(specs, stage[cohortOutput]{
			name: "cohort-" + c.year, version: verCohort, inputs: cohortInputs(cfg, c.n),
			run: func() (cohortOutput, error) {
				seed := root.SplitNamed("cohort-" + c.year).Uint64()
				noiseRng := root.SplitNamed("noise-" + c.year)
				rs, err := gen.GenerateParallel(seed, c.n, cfg.Workers)
				if err != nil {
					return cohortOutput{}, fmt.Errorf("core: generating %s cohort: %w", c.year, err)
				}
				if cfg.NoiseRate > 0 {
					noisy, _, err := population.InjectNoise(noiseRng, rs, cfg.NoiseRate)
					if err != nil {
						return cohortOutput{}, fmt.Errorf("core: injecting noise into %s: %w", c.year, err)
					}
					rs = noisy
				}
				report := survey.Screen(a.Instrument, rs, survey.CanonicalRules())
				rs = survey.DropHard(rs, report)
				if len(rs) == 0 {
					return cohortOutput{}, fmt.Errorf("core: screening removed the entire %s cohort", c.year)
				}
				return cohortOutput{responses: rs, quality: report}, nil
			},
			set: func(o cohortOutput) error {
				*c.out, *c.quality = o.responses, o.quality
				return nil
			},
			codec: codec[cohortOutput]{encode: encodeCohortPayload, decode: decodeCohortPayload},
		}.spec())
	}

	// 1b. Longitudinal panel (optional), independent of the cohorts.
	if cfg.PanelN > 0 {
		specs = append(specs, stage[[]population.PanelMember]{
			name: "panel", version: verPanel, inputs: panelInputs(cfg),
			run: func() ([]population.PanelMember, error) {
				panelRng := root.SplitNamed("panel")
				pg, err := population.NewPanelGenerator(a.Model2011, a.Model2024, population.PanelOptions{})
				if err != nil {
					return nil, fmt.Errorf("core: panel generator: %w", err)
				}
				members, err := pg.Generate(panelRng, cfg.PanelN)
				if err != nil {
					return nil, fmt.Errorf("core: generating panel: %w", err)
				}
				return members, nil
			},
			set:   assign(&a.Panel),
			codec: codec[[]population.PanelMember]{encodePanelPayload, decodePanelPayload, a.holdPanel},
		}.spec())
	}

	// 2. Post-stratification, each cohort independently once it lands.
	// Margins are restricted to observed categories so a small cohort
	// that happens to miss a rare stratum still rakes (the standard
	// collapsed-stratum fallback). Raking rewrites the cohort's weights
	// in place; the output carries them so a restore can apply them
	// positionally (a length mismatch means skew: recompute).
	if cfg.Rake {
		for _, c := range cohorts {
			specs = append(specs, stage[rakeOutput]{
				name: "rake-" + c.year, version: verRake, deps: []string{"cohort-" + c.year},
				run: func() (rakeOutput, error) {
					margins := make([]weighting.Margin, 0, 2)
					for _, m := range weighting.FrameMargins(c.model.FieldShare, c.model.CareerShare) {
						rm, err := weighting.RestrictToObserved(m, *c.out)
						if err != nil {
							return rakeOutput{}, fmt.Errorf("core: raking %s: %w", c.year, err)
						}
						margins = append(margins, rm)
					}
					res, err := weighting.Rake(*c.out, margins, weighting.Options{TrimRatio: 6})
					if err != nil {
						return rakeOutput{}, fmt.Errorf("core: raking %s: %w", c.year, err)
					}
					weights := make([]float64, len(*c.out))
					for i, r := range *c.out {
						weights[i] = r.Weight
					}
					return rakeOutput{result: res, weights: weights}, nil
				},
				set: func(o rakeOutput) error {
					if len(o.weights) != len(*c.out) {
						return fmt.Errorf("core: rake payload has %d weights for %d responses", len(o.weights), len(*c.out))
					}
					for i, wt := range o.weights {
						(*c.out)[i].Weight = wt
					}
					*c.rake = o.result
					return nil
				},
				codec: codec[rakeOutput]{encode: encodeRakePayload, decode: decodeRakePayload},
			}.spec())
		}
	}

	// 3+4. Cluster accounting traces and module-load telemetry. Traces
	// run one stage per (year, replica): TraceScale replicas of a year
	// are separate stages — that is the parallelism beyond the per-year
	// split — each streaming its generator straight into its own column
	// table. Trace stages are the stealable ones. Telemetry stays one
	// stage per year (its volume does not scale).
	scale := cfg.traceScale()
	repTables := make([][]trace.JobTable, len(cfg.TraceYears))
	modTables := make([]modlog.EventTable, len(cfg.TraceYears))
	traceStages := make([]string, 0, len(cfg.TraceYears)*scale)
	modStages := make([]string, len(cfg.TraceYears))
	var simStages []string
	for i, year := range cfg.TraceYears {
		repTables[i] = make([]trace.JobTable, scale)
		for rep := 0; rep < scale; rep++ {
			name := traceStreamName(year, rep)
			traceStages = append(traceStages, name)
			if year == cfg.SimYear {
				simStages = append(simStages, name)
			}
			// A trace stage's cache key excludes TraceScale by design:
			// scaling up adds stages without renaming existing ones, so
			// every replica a smaller scale cached keeps hitting.
			specs = append(specs, stage[trace.JobTable]{
				name: name, version: verTrace, inputs: seedInputs(cfg), stealable: true,
				run:   func() (trace.JobTable, error) { return buildTraceReplica(root, year, rep) },
				set:   assign(&repTables[i][rep]),
				codec: jobsCodec,
			}.spec())
		}
		modStages[i] = fmt.Sprintf("modlog-%d", year)
		specs = append(specs, stage[modlog.EventTable]{
			name: modStages[i], version: verModlog, inputs: seedInputs(cfg),
			run: func() (modlog.EventTable, error) {
				events, err := modlog.CampusModulesModel(year).Generate(root.SplitNamed(modStages[i]))
				if err != nil {
					return nil, fmt.Errorf("core: generating %d module log: %w", year, err)
				}
				return table.FromSlice[modlog.Event](modlog.EventCodec{}, events), nil
			},
			set:   assign(&modTables[i]),
			codec: tableCodec(payloadEvents, modlog.EventCodec{}),
		}.spec())
	}
	specs = append(specs, stage[[]trace.JobTable]{
		name: "jobs-merge", deps: traceStages,
		run: func() ([]trace.JobTable, error) {
			all := make([]trace.JobTable, len(cfg.TraceYears))
			for i := range all {
				all[i] = concatJobTables(repTables[i])
			}
			return all, nil
		},
		set: func(all []trace.JobTable) error {
			for i, year := range cfg.TraceYears {
				a.JobsByYr[year] = all[i]
			}
			a.Jobs = table.Concat[trace.Job](all...)
			return nil
		},
	}.spec())
	// modlog-merge's key covers only the telemetry inputs (the upstream
	// modlog keys): the aggregate is SimYear-independent, so a SimYear
	// change keeps hitting. ModEventsSim is re-pointed from the live
	// per-year tables on both paths, which is why it is not in the
	// payload.
	specs = append(specs, stage[[]modlog.YearShares]{
		name: "modlog-merge", version: verModAgg, deps: modStages,
		run: func() ([]modlog.YearShares, error) {
			agg, err := modlog.AggregateByYearTable(table.Concat[modlog.Event](modTables...))
			if err != nil {
				return nil, fmt.Errorf("core: aggregating module log: %w", err)
			}
			return agg, nil
		},
		set: func(agg []modlog.YearShares) error {
			a.ModAgg = agg
			a.ModEventsSim = modTables[simIndex(cfg)]
			return nil
		},
		codec: codec[[]modlog.YearShares]{encode: encodeModAggPayload, decode: decodeModAggPayload},
	}.spec())

	// 5. Scheduler simulations on the sim year: the requested policy
	// plus the FCFS and conservative baselines, concurrently as soon as
	// the sim-year replicas land (they need only that year, not the
	// merge). The generator emits arrival order and replica submit
	// windows are disjoint, so the concatenated feed streams straight
	// into the simulator — no materialization, no sort. Sim keys: the
	// policy run reads cfg.Policy (the canonical late-DAG knob —
	// changing it invalidates exactly this one stage); the two baselines
	// hardcode theirs, distinguished by version tag. All three inherit
	// the sim-year trace keys upstream, so a seed or TraceScale change
	// invalidates them and a cohort-side change does not.
	cluster := sched.DefaultCampusCluster()
	for _, sim := range []struct {
		name, version, inputs, what string
		opt                         sched.Options
		dst                         **sched.Result
	}{
		{"sim-policy", verSimPolicy, simPolicyInputs(cfg), "scheduler simulation", sched.Options{Policy: cfg.Policy, Fairshare: true}, &a.Sim},
		{"sim-fcfs", verSimFCFS, "", "FCFS baseline", sched.Options{Policy: sched.FCFS}, &a.SimFCFS},
		{"sim-conservative", verSimCons, "", "conservative baseline", sched.Options{Policy: sched.ConservativeBackfill}, &a.SimConservative},
	} {
		specs = append(specs, stage[simOutput]{
			name: sim.name, version: sim.version, inputs: sim.inputs, deps: simStages,
			run: func() (simOutput, error) {
				res, err := sched.SimulateTable(cluster, concatJobTables(repTables[simIndex(cfg)]), sim.opt)
				if err != nil {
					return simOutput{}, fmt.Errorf("core: %s: %w", sim.what, err)
				}
				return simOutput{res: res}, nil
			},
			set: func(o simOutput) error {
				*sim.dst = o.res
				return nil
			},
			codec: codec[simOutput]{encodeSimPayload, decodeSimPayload, a.holdSim(sim.name, func() trace.JobTable {
				return concatJobTables(repTables[simIndex(cfg)])
			})},
		}.spec())
	}
	return specs, nil
}

// repStride is the submit-time offset between trace replicas: a full
// year in seconds, comfortably past the one-month horizon a single
// replica spans, so replica r's arrivals all land after replica r-1's
// and the concatenated table is in arrival order by construction.
const repStride = 366 * 86400

// traceStreamName names a (year, replica) trace stage and its rng
// stream. Replica 0 keeps the historical "trace-<year>" name so an
// unscaled run derives bit-identical streams to every release before
// TraceScale existed.
func traceStreamName(year, rep int) string {
	if rep == 0 {
		return fmt.Sprintf("trace-%d", year)
	}
	return fmt.Sprintf("trace-%d-rep%d", year, rep)
}

// traceFirstID is the job-ID base for a (year, replica) block. Replica
// 0 keeps the historical year*1e7 base; later replicas sit rep<<32
// above it. Year bases differ by multiples of 1e7 (max ~1e9 across the
// valid year range), far below the 2^32 replica stride, and a replica
// holds far fewer than 1e7 jobs — so blocks can never collide.
func traceFirstID(year, rep int) uint64 {
	return uint64(year)*10_000_000 + uint64(rep)<<32
}

// buildTraceReplica streams one (year, replica) trace generation into a
// column table sized for the model's job count. The replica's named
// stream is derived from root (SplitNamed is pure and never advances
// root), so every call generates the same rows.
func buildTraceReplica(root *rng.RNG, year, rep int) (*table.Resident[trace.Job], error) {
	stream := traceStreamName(year, rep)
	offset := int64(rep) * repStride
	model := trace.CampusModel(year)
	tab, err := table.Build[trace.Job](trace.JobCodec{}, model.SizeHint(), func(appendRow func(trace.Job)) error {
		return model.GenerateStream(root.SplitNamed(stream), traceFirstID(year, rep),
			func(j trace.Job) error {
				j.Submit += offset
				appendRow(j)
				return nil
			})
	})
	if err != nil {
		return nil, fmt.Errorf("core: generating %s: %w", stream, err)
	}
	return tab, nil
}

// concatJobTables joins a year's replica tables in replica order (a
// no-op for the common single-replica case).
func concatJobTables(reps []trace.JobTable) trace.JobTable {
	if len(reps) == 1 {
		return reps[0]
	}
	return table.Concat[trace.Job](reps...)
}

// simIndex returns the position of cfg.SimYear within cfg.TraceYears
// (guaranteed present by Validate).
func simIndex(cfg Config) int {
	for i, y := range cfg.TraceYears {
		if y == cfg.SimYear {
			return i
		}
	}
	panic(fmt.Sprintf("core: sim year %d not in trace years", cfg.SimYear))
}

// JobCount returns the total number of accounting jobs across all trace
// years and replicas, without materializing any of them.
func (a *Artifacts) JobCount() int {
	if a.Jobs == nil {
		return 0
	}
	return a.Jobs.Len(table.Exact)
}

// ModAggFor returns the telemetry aggregate for one year.
func (a *Artifacts) ModAggFor(year int) (modlog.YearShares, error) {
	for _, ys := range a.ModAgg {
		if ys.Year == year {
			return ys, nil
		}
	}
	return modlog.YearShares{}, fmt.Errorf("core: no telemetry for year %d", year)
}
