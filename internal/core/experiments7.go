package core

// Seed-sensitivity experiment (T16): re-run the survey side of the
// pipeline across independent seeds and report the spread of the
// headline estimates — the robustness check a synthetic-data study owes
// its readers. Only the (cheap) cohort generation and raking re-run;
// the telemetry side is already exercised by its own experiments.

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/population"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/survey"
	"repro/internal/weighting"
)

// sweepReplicates is the number of Monte Carlo re-runs for T16.
const sweepReplicates = 8

// headline is one replicate's key estimates.
type headline struct {
	Python24 float64
	GPU24    float64
	VCS24    float64
	PyDelta  float64 // python 2024 - 2011
}

// headlineFor generates both cohorts from one seed, rakes them, and
// extracts the headline shares.
func headlineFor(seed uint64, n11, n24 int) (headline, error) {
	var h headline
	cohort := func(m *population.Model, name string, n int) ([]*survey.Response, error) {
		g, err := population.NewGenerator(m)
		if err != nil {
			return nil, err
		}
		rs, err := g.GenerateRespondents(rng.New(seed).SplitNamed(name), n)
		if err != nil {
			return nil, err
		}
		// Small replicates can miss rare strata entirely; collapse
		// unobserved categories so raking stays feasible.
		margins := make([]weighting.Margin, 0, 2)
		for _, m := range weighting.FrameMargins(m.FieldShare, m.CareerShare) {
			rm, err := weighting.RestrictToObserved(m, rs)
			if err != nil {
				return nil, err
			}
			margins = append(margins, rm)
		}
		if _, err := weighting.Rake(rs, margins, weighting.Options{TrimRatio: 6}); err != nil {
			return nil, err
		}
		return rs, nil
	}
	r11, err := cohort(population.Model2011(), "sweep-2011", n11)
	if err != nil {
		return h, err
	}
	r24, err := cohort(population.Model2024(), "sweep-2024", n24)
	if err != nil {
		return h, err
	}
	ins := survey.Canonical()
	share := func(rs []*survey.Response, qid, opt string) (float64, error) {
		tab, err := ins.Tabulate(qid, rs)
		if err != nil {
			return 0, err
		}
		return tab.Share(opt), nil
	}
	if h.Python24, err = share(r24, survey.QLanguages, "python"); err != nil {
		return h, err
	}
	if h.GPU24, err = share(r24, survey.QParallelism, "gpu"); err != nil {
		return h, err
	}
	if h.VCS24, err = share(r24, survey.QPractices, "version control"); err != nil {
		return h, err
	}
	py11, err := share(r11, survey.QLanguages, "python")
	if err != nil {
		return h, err
	}
	h.PyDelta = h.Python24 - py11
	return h, nil
}

func table16(a *Artifacts) (*report.Table, error) {
	seeds := make([]uint64, sweepReplicates)
	for i := range seeds {
		seeds[i] = a.Config.Seed + uint64(i)*1_000_003
	}
	reps, err := parallel.Map(a.Config.Workers, seeds, func(_ int, s uint64) (headline, error) {
		return headlineFor(s, a.Config.N2011, a.Config.N2024)
	})
	if err != nil {
		return nil, fmt.Errorf("core: sweep: %w", err)
	}
	t := report.NewTable(fmt.Sprintf("Table 16: Headline estimates across %d seeds", sweepReplicates),
		"estimate", "mean", "sd", "min", "max")
	for _, spec := range []struct {
		name string
		get  func(headline) float64
	}{
		{"python share 2024", func(h headline) float64 { return h.Python24 }},
		{"gpu share 2024", func(h headline) float64 { return h.GPU24 }},
		{"version control 2024", func(h headline) float64 { return h.VCS24 }},
		{"python delta 2011->2024", func(h headline) float64 { return h.PyDelta }},
	} {
		vals := make([]float64, len(reps))
		for i, rep := range reps {
			vals[i] = spec.get(rep)
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
