package core

// Free-text experiments: coded bottleneck categories by cohort (T13).

import (
	"fmt"

	"repro/internal/growth"
	"repro/internal/modlog"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/survey"
	"repro/internal/textcode"
)

func table13(a *Artifacts) (*report.Table, error) {
	tax := textcode.BottleneckTaxonomy()
	texts := func(rs []*survey.Response) []string {
		var out []string
		for _, r := range rs {
			if t := r.Text(survey.QBottleneck); t != "" {
				out = append(out, t)
			}
		}
		return out
	}
	t11 := texts(a.Cohort2011)
	t24 := texts(a.Cohort2024)
	if len(t11) == 0 || len(t24) == 0 {
		return nil, fmt.Errorf("core: table13: missing bottleneck texts (%d / %d)", len(t11), len(t24))
	}
	c11, u11 := tax.CodeAll(t11)
	c24, u24 := tax.CodeAll(t24)

	t := report.NewTable("Table 13: What limits computational research (coded free text)",
		"category", "2011", "2024", "delta", "q")
	ps := make([]float64, 0, len(tax.Categories()))
	type row struct {
		cat            string
		s11, s24, diff float64
	}
	rows := make([]row, 0, len(tax.Categories()))
	for _, cat := range tax.Categories() {
		s11 := float64(c11[cat]) / float64(len(t11))
		s24 := float64(c24[cat]) / float64(len(t24))
		_, p, err := stats.TwoProportionZ(float64(c24[cat]), float64(len(t24)),
			float64(c11[cat]), float64(len(t11)))
		if err != nil {
			return nil, err
		}
		ps = append(ps, p)
		rows = append(rows, row{cat: cat, s11: s11, s24: s24, diff: s24 - s11})
	}
	qs, err := stats.BHAdjust(ps)
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		if err := t.AddRow(r.cat, report.Pct(r.s11), report.Pct(r.s24),
			fmt.Sprintf("%+.1fpp", r.diff*100), report.PValue(qs[i])); err != nil {
			return nil, err
		}
	}
	t.Footnote = fmt.Sprintf("taxonomy-coded shares of respondents; uncoded: %d (2011), %d (2024); multi-coding allowed", u11, u24)
	return t, nil
}

func table14(a *Artifacts) (*report.Table, error) {
	if len(a.ModAgg) < 4 {
		return nil, fmt.Errorf("core: table14 needs >= 4 telemetry years, have %d", len(a.ModAgg))
	}
	years := make([]float64, len(a.ModAgg))
	for i, ys := range a.ModAgg {
		years[i] = float64(ys.Year)
	}
	t := report.NewTable("Table 14: Adoption model comparison on rising modules",
		"module", "logistic rmse", "bass rmse", "better")
	for _, mod := range []string{"python", "cuda", "anaconda", "julia"} {
		_, shares := modlogSeries(a, mod)
		mc, err := growth.CompareModels(mod, years, shares)
		if err != nil {
			return nil, err
		}
		if err := t.AddRow(mc.Name, report.F(mc.LogisticRMSE, 4),
			report.F(mc.BassRMSE, 4), mc.Better); err != nil {
			return nil, err
		}
	}
	t.Footnote = "both fitted by deterministic grid + coordinate descent; 'tie' when RMSEs are within 5%"
	return t, nil
}

// modlogSeries extracts one module's yearly share series.
func modlogSeries(a *Artifacts, mod string) ([]int, []float64) {
	return modlog.Series(a.ModAgg, mod)
}
