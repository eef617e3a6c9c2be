package core

// Second wave of experiments: the scheduler-policy comparison, the
// training Likert, module co-loads, fitted adoption curves, and the
// queue-depth timeline. Kept in a separate file so experiments.go stays
// the "paper core" and this stays the extensions index.

import (
	"fmt"
	"io"

	"repro/internal/growth"
	"repro/internal/modlog"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/survey"
)

func table8(a *Artifacts) (*report.Table, error) {
	t := report.NewTable(fmt.Sprintf("Table 8: Scheduler policies on the %d trace", a.Config.SimYear),
		"policy", "mean wait (h)", "median (h)", "p95 (h)", "slowdown", "fairness", "cpu util", "gpu util", "backfills")
	for _, res := range []*sched.Result{a.SimFCFS, a.SimConservative, a.Sim} {
		if res == nil {
			return nil, fmt.Errorf("core: table8: missing scheduler result")
		}
		m := res.Metrics
		if err := t.AddRow(m.Policy.String(),
			report.F(m.MeanWait/3600, 2), report.F(m.MedianWait/3600, 2),
			report.F(m.P95Wait/3600, 2), report.F(m.BoundedSlowdown, 1),
			report.F(m.UserFairness, 2),
			report.Pct(m.AvgCPUUtil), report.Pct(m.AvgGPUUtil),
			fmt.Sprintf("%d", m.BackfillStarts)); err != nil {
			return nil, err
		}
	}
	t.Footnote = "slowdown = geomean bounded slowdown (tau=10s); fairness = Jain index over per-user slowdown; the third row uses the study's configured policy with fairshare"
	return t, nil
}

func table9(a *Artifacts) (*report.Table, error) {
	s11, err := a.Instrument.SummarizeLikert(survey.QTraining, a.Cohort2011)
	if err != nil {
		return nil, err
	}
	s24, err := a.Instrument.SummarizeLikert(survey.QTraining, a.Cohort2024)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Table 9: Formal software-development training (1 none .. 5 extensive)",
		"cohort", "mean", "top-box (4-5)", "1", "2", "3", "4", "5")
	for _, s := range []struct {
		label string
		sum   survey.LikertSummary
	}{{"2011", s11}, {"2024", s24}} {
		row := []string{s.label, report.F(s.sum.Mean, 2), report.Pct(s.sum.TopBox)}
		for i := 0; i < 5; i++ {
			row = append(row, report.Pct(s.sum.Counts[i]/s.sum.Base))
		}
		if err := t.AddRow(row...); err != nil {
			return nil, err
		}
	}
	// Mann-Whitney across cohorts on the raw ratings.
	v11, _, err := a.Instrument.NumericValues(survey.QTraining, a.Cohort2011)
	if err != nil {
		return nil, err
	}
	v24, _, err := a.Instrument.NumericValues(survey.QTraining, a.Cohort2024)
	if err != nil {
		return nil, err
	}
	mw, err := stats.MannWhitneyU(v11, v24)
	if err != nil {
		return nil, err
	}
	t.Footnote = fmt.Sprintf("Mann-Whitney U across cohorts: z=%.2f, p=%s", mw.Z, report.PValue(mw.P))
	return t, nil
}

func table10(a *Artifacts) (*report.Table, error) {
	pairs, err := a.CoLoadPairs()
	if err != nil {
		return nil, err
	}
	top := modlog.TopPairs(pairs, 10, 5)
	t := report.NewTable(fmt.Sprintf("Table 10: Module co-load affinities (%d)", a.Config.SimYear),
		"pair", "co-users", "jaccard", "lift")
	for _, p := range top {
		if err := t.AddRow(p.A+" + "+p.B, fmt.Sprintf("%d", p.UsersAB),
			report.F(p.Jaccard, 2), report.F(p.Lift, 2)); err != nil {
			return nil, err
		}
	}
	t.Footnote = "lift > 1: pair co-occurs more than independent adoption predicts; min 5 co-users"
	return t, nil
}

func figure9(a *Artifacts, w io.Writer) error {
	if len(a.ModAgg) < 4 {
		return fmt.Errorf("core: figure9 needs >= 4 telemetry years, have %d", len(a.ModAgg))
	}
	obsYears := make([]float64, len(a.ModAgg))
	for i, ys := range a.ModAgg {
		obsYears[i] = float64(ys.Year)
	}
	projectTo := obsYears[len(obsYears)-1] + 4
	// Fine grid for the fitted curves, extending past the data.
	var grid []float64
	for y := obsYears[0]; y <= projectTo; y += 0.5 {
		grid = append(grid, y)
	}
	var series []report.LineSeries
	for _, mod := range []string{"python", "matlab", "fortran", "cuda"} {
		_, shares := modlog.Series(a.ModAgg, mod)
		tr, err := growth.AnalyzeSeries(mod, obsYears, shares, projectTo)
		if err != nil {
			return err
		}
		ys := make([]float64, len(grid))
		for i, y := range grid {
			v := tr.Fit.Eval(y)
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			ys[i] = v
		}
		series = append(series, report.LineSeries{
			Name: fmt.Sprintf("%s (%s, t0=%.0f)", mod, tr.Class, tr.Fit.T0),
			Ys:   ys,
		})
	}
	return report.LineChart(w,
		fmt.Sprintf("Figure 9: Logistic adoption fits, projected to %.0f", projectTo),
		grid, series, "year", "share of cluster users", true)
}

func figure10(a *Artifacts, w io.Writer) error {
	fc := a.SimFCFS.Samples
	ez := a.Sim.Samples
	n := len(fc)
	if len(ez) < n {
		n = len(ez)
	}
	if n < 2 {
		return fmt.Errorf("core: figure10: too few samples (%d)", n)
	}
	k := n/300 + 1
	var xs, qf, qe []float64
	for i := 0; i < n; i += k {
		xs = append(xs, float64(fc[i].Time)/86400)
		qf = append(qf, float64(fc[i].Queued))
		qe = append(qe, float64(ez[i].Queued))
	}
	return report.LineChart(w, "Figure 10: Queue depth over the simulated month",
		xs, []report.LineSeries{
			{Name: "fcfs", Ys: qf},
			{Name: a.Sim.Metrics.Policy.String(), Ys: qe},
		}, "day", "jobs queued", false)
}
