package core

// Seed-sensitivity experiment (T16): re-run the survey side of the
// pipeline across independent seeds and report the spread of the
// headline estimates — the robustness check a synthetic-data study owes
// its readers. Only the (cheap) cohort generation and raking re-run;
// the telemetry side is already exercised by its own experiments.
//
// The sweep splits into two halves, one per cohort. Each replicate
// draws its 2011 cohort from the "sweep-2011" stream and its 2024
// cohort from "sweep-2024", and rakes each against its own margins, so
// nothing crosses between the halves until table16 subtracts the
// python shares. Each half therefore runs through the stage cache's
// exec path under a key of the seed and its own cohort's size: a
// what-if that changes one cohort's size regenerates only that half.

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/parallel"
	"repro/internal/population"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/survey"
	"repro/internal/weighting"
)

// sweepReplicates is the number of Monte Carlo re-runs for T16, and
// sweepStride the distance between their seeds. The sweep halves'
// version tag covers both.
const (
	sweepReplicates = 8
	sweepStride     = 1_000_003
)

// sweepShare names one option of one choice question.
type sweepShare struct{ qid, option string }

// sweepHalf is one cohort's side of the T16 sweep: the cohort it
// regenerates for every replicate and the shares it reads off each.
type sweepHalf struct {
	year   string
	n      int
	model  *population.Model
	shares []sweepShare
}

// sweepHalves returns cfg's 2011 and 2024 halves, in that order.
func sweepHalves(cfg Config) [2]sweepHalf {
	return [2]sweepHalf{
		{"2011", cfg.N2011, population.Model2011(), []sweepShare{{survey.QLanguages, "python"}}},
		{"2024", cfg.N2024, population.Model2024(), []sweepShare{
			{survey.QLanguages, "python"},
			{survey.QParallelism, "gpu"},
			{survey.QPractices, "version control"},
		}},
	}
}

// spec declares the half as a stage that is never added to the graph:
// its output is the shares of every replicate, replicate-major, and out
// receives them.
func (h sweepHalf) spec(cfg Config, out *[]float64) spec {
	return stage[[]float64]{
		name: "sweep-" + h.year, version: verSweep, inputs: sweepInputs(cfg, h.n),
		run:   func() ([]float64, error) { return h.run(cfg) },
		set:   assign(out),
		codec: codec[[]float64]{encode: encodeSweepPayload, decode: sweepDecoder(sweepReplicates * len(h.shares))},
	}.spec()
}

// run generates and rakes the half's cohort from every replicate seed,
// sharing one generator across them.
func (h sweepHalf) run(cfg Config) ([]float64, error) {
	g, err := population.NewGenerator(h.model)
	if err != nil {
		return nil, err
	}
	seeds := make([]uint64, sweepReplicates)
	for i := range seeds {
		seeds[i] = cfg.Seed + uint64(i)*sweepStride
	}
	reps, err := parallel.Map(cfg.Workers, seeds, func(_ int, seed uint64) ([]float64, error) {
		rs, err := g.GenerateRespondents(rng.New(seed).SplitNamed("sweep-"+h.year), h.n)
		if err != nil {
			return nil, err
		}
		// Small replicates can miss rare strata entirely; collapse
		// unobserved categories so raking stays feasible.
		margins := make([]weighting.Margin, 0, 2)
		for _, m := range weighting.FrameMargins(h.model.FieldShare, h.model.CareerShare) {
			rm, err := weighting.RestrictToObserved(m, rs)
			if err != nil {
				return nil, err
			}
			margins = append(margins, rm)
		}
		if _, err := weighting.Rake(rs, margins, weighting.Options{TrimRatio: 6}); err != nil {
			return nil, err
		}
		vals := make([]float64, len(h.shares))
		for i, s := range h.shares {
			tab, err := g.Instrument().Tabulate(s.qid, rs)
			if err != nil {
				return nil, err
			}
			vals[i] = tab.Share(s.option)
		}
		return vals, nil
	})
	if err != nil {
		return nil, err
	}
	return slices.Concat(reps...), nil
}

func table16(a *Artifacts) (*report.Table, error) {
	// With no stage cache (an uncached run, a render-key check) exec
	// computes both halves inline.
	var py11, shares24 []float64
	sc := newStageCacher(a.stageCache)
	halves := sweepHalves(a.Config)
	for i, out := range []*[]float64{&py11, &shares24} {
		s := halves[i].spec(a.Config, out)
		if _, err := sc.exec(context.TODO(), a.Config, s, sc.key(s), nil, false); err != nil {
			return nil, fmt.Errorf("core: sweep: %w", err)
		}
	}
	per24 := len(halves[1].shares)
	t := report.NewTable(fmt.Sprintf("Table 16: Headline estimates across %d seeds", sweepReplicates),
		"estimate", "mean", "sd", "min", "max")
	for _, spec := range []struct {
		name string
		get  func(rep int) float64
	}{
		{"python share 2024", func(rep int) float64 { return shares24[rep*per24] }},
		{"gpu share 2024", func(rep int) float64 { return shares24[rep*per24+1] }},
		{"version control 2024", func(rep int) float64 { return shares24[rep*per24+2] }},
		{"python delta 2011->2024", func(rep int) float64 { return shares24[rep*per24] - py11[rep] }},
	} {
		vals := make([]float64, sweepReplicates)
		for rep := range vals {
			vals[rep] = spec.get(rep)
		}
		sum, err := stats.Summarize(vals)
		if err != nil {
			return nil, err
		}
		if err := t.AddRow(spec.name, report.Pct(sum.Mean), report.Pct(sum.Std),
			report.Pct(sum.Min), report.Pct(sum.Max)); err != nil {
			return nil, err
		}
	}
	t.Footnote = fmt.Sprintf(
		"each replicate regenerates and rakes both cohorts (n=%d/%d) from an independent seed; every direction claim must survive the spread",
		a.Config.N2011, a.Config.N2024)
	return t, nil
}
