package core

// Data-quality experiment: the screening summary table (T12).

import (
	"fmt"

	"repro/internal/report"
	"repro/internal/survey"
)

func table12(a *Artifacts) (*report.Table, error) {
	t := report.NewTable("Table 12: Data-quality screening by cohort",
		"rule", "severity", "2011 flags", "2024 flags")
	type key struct {
		rule string
		sev  survey.Severity
	}
	count := func(qr survey.QualityReport) map[key]int {
		out := map[key]int{}
		for _, f := range qr.Flags {
			out[key{f.Rule, f.Severity}]++
		}
		return out
	}
	c11 := count(a.Quality2011)
	c24 := count(a.Quality2024)
	// Fixed row order: built-in duplicate rule then the canonical rules.
	rows := []key{{"duplicate-id", survey.Hard}}
	for _, r := range survey.CanonicalRules() {
		rows = append(rows, key{r.Name, r.Severity})
	}
	for _, k := range rows {
		if err := t.AddRow(k.rule, k.sev.String(),
			fmt.Sprintf("%d", c11[k]), fmt.Sprintf("%d", c24[k])); err != nil {
			return nil, err
		}
	}
	t.Footnote = fmt.Sprintf(
		"screened %d / %d raw responses; clean share %.1f%% / %.1f%%; hard-flagged respondents dropped before weighting (noise rate %.0f%%)",
		a.Quality2011.Responses, a.Quality2024.Responses,
		a.Quality2011.CleanShare()*100, a.Quality2024.CleanShare()*100,
		a.Config.NoiseRate*100)
	return t, nil
}
