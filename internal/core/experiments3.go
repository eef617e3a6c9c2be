package core

// Panel experiments: within-person language dynamics (T11) and the
// transition-matrix heatmap (F11). Both require Config.PanelN > 0.

import (
	"fmt"
	"io"

	"repro/internal/report"
	"repro/internal/survey"
	"repro/internal/trend"
)

func panelWavesOf(a *Artifacts) ([]*survey.Response, []*survey.Response, error) {
	return a.PanelWaves()
}

func table11(a *Artifacts) (*report.Table, error) {
	w1, w2, err := panelWavesOf(a)
	if err != nil {
		return nil, err
	}
	rets, err := trend.Retentions(a.Instrument, survey.QLanguages, w1, w2)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Table 11: Within-person language dynamics (panel)",
		"language", "kept", "95% CI", "adopted", "95% CI", "wave-1 users")
	for _, r := range rets {
		if r.HadN == 0 {
			continue // language did not exist in wave 1
		}
		if err := t.AddRow(r.Option,
			report.Pct(r.Keep), report.CI(r.KeepCI.Lo, r.KeepCI.Hi),
			report.Pct(r.Adopt), report.CI(r.AdoptCI.Lo, r.AdoptCI.Hi),
			fmt.Sprintf("%d", r.HadN)); err != nil {
			return nil, err
		}
	}
	ml2py, py2ml, err := trend.NetSwitchers(survey.QLanguages, "matlab", "python", w1, w2)
	if err != nil {
		return nil, err
	}
	t.Footnote = fmt.Sprintf("n=%d panel members; kept = P(use in 2024 | used in 2011); matlab→python switchers: %d, reverse: %d",
		len(a.Panel), ml2py, py2ml)
	return t, nil
}

func figure11(a *Artifacts, w io.Writer) error {
	w1, w2, err := panelWavesOf(a)
	if err != nil {
		return err
	}
	opts := []string{"python", "matlab", "fortran", "c", "r", "julia"}
	m, err := trend.TransitionMatrix(a.Instrument, survey.QLanguages, opts, w1, w2)
	if err != nil {
		return err
	}
	return report.Heatmap(w,
		"Figure 11: P(uses column in 2024 | used row in 2011), panel",
		opts, m, 1)
}
