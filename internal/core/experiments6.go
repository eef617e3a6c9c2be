package core

// Usage-concentration experiments: the Lorenz curve of per-user
// core-hours (F12) and the concentration summary by year (T15) — the
// "a small fraction of users consume most of the machine" claim every
// campus telemetry study makes.

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/stats"
)

func table15(a *Artifacts) (*report.Table, error) {
	t := report.NewTable("Table 15: Core-hour concentration across users",
		"year", "users", "gini", "top 1%", "top 10%", "median user (h)")
	years := append([]int(nil), a.Config.TraceYears...)
	sort.Ints(years)
	for _, y := range years {
		vals, err := a.UserUsageFor(y)
		if err != nil {
			return nil, err
		}
		gini, err := stats.Gini(vals)
		if err != nil {
			return nil, err
		}
		top1, err := stats.TopShare(vals, 0.01)
		if err != nil {
			return nil, err
		}
		top10, err := stats.TopShare(vals, 0.10)
		if err != nil {
			return nil, err
		}
		med, err := stats.Median(vals)
		if err != nil {
			return nil, err
		}
		if err := t.AddRow(fmt.Sprintf("%d", y), fmt.Sprintf("%d", len(vals)),
			report.F(gini, 2), report.Pct(top1), report.Pct(top10),
			report.F(med, 0)); err != nil {
			return nil, err
		}
	}
	t.Footnote = "usage = cpu core-hours + gpu-hours per active user in the sampled month"
	return t, nil
}

func figure12(a *Artifacts, w io.Writer) error {
	var series []report.LineSeries
	var first []float64
	for _, y := range []int{2011, a.Config.SimYear} {
		vals, err := a.UserUsageFor(y)
		if err != nil {
			return err
		}
		pop, val, err := stats.Lorenz(vals)
		if err != nil {
			return err
		}
		// Thin to <=200 points and resample onto the first year's pop
		// grid so both series share x values.
		k := len(pop)/200 + 1
		var tp, tv []float64
		for i := 0; i < len(pop); i += k {
			tp = append(tp, pop[i])
			tv = append(tv, val[i])
		}
		tp = append(tp, 1)
		tv = append(tv, 1)
		if first == nil {
			first = tp
			series = append(series, report.LineSeries{Name: fmt.Sprintf("%d", y), Ys: tv})
			// Equality reference line on the same grid.
			eq := make([]float64, len(tp))
			copy(eq, tp)
			series = append(series, report.LineSeries{Name: "equality", Ys: eq})
		} else {
			// Interpolate this year's curve onto the first grid.
			resampled := make([]float64, len(first))
			for i, x := range first {
				resampled[i] = interp(tp, tv, x)
			}
			series = append(series, report.LineSeries{Name: fmt.Sprintf("%d", y), Ys: resampled})
		}
	}
	return report.LineChart(w, "Figure 12: Lorenz curve of per-user usage",
		first, series, "share of users", "share of core-hours", true)
}

// interp linearly interpolates y(x) over sorted xs.
func interp(xs, ys []float64, x float64) float64 {
	if x <= xs[0] {
		return ys[0]
	}
	for i := 1; i < len(xs); i++ {
		if x <= xs[i] {
			span := xs[i] - xs[i-1]
			if span == 0 {
				return ys[i]
			}
			frac := (x - xs[i-1]) / span
			return ys[i-1] + frac*(ys[i]-ys[i-1])
		}
	}
	return ys[len(ys)-1]
}

func figure13(a *Artifacts, w io.Writer) error {
	boxes := make([]report.BoxStats, 0, 3)
	for _, res := range []*struct {
		r *sched.Result
	}{{a.SimFCFS}, {a.SimConservative}, {a.Sim}} {
		if res.r == nil {
			return fmt.Errorf("core: figure13: missing scheduler result")
		}
		waits := make([]float64, len(res.r.Results))
		for i, jr := range res.r.Results {
			waits[i] = float64(jr.Wait) / 3600
		}
		sum, err := stats.Summarize(waits)
		if err != nil {
			return err
		}
		boxes = append(boxes, report.BoxStats{
			Label: res.r.Metrics.Policy.String(),
			Min:   sum.Min, Q1: sum.P25, Median: sum.P50, Q3: sum.P75, P95: sum.P95,
		})
	}
	return report.BoxPlot(w, "Figure 13: Queue-wait distribution by policy (hours)", boxes, "hours")
}
