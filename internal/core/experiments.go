package core

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"repro/internal/modlog"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/survey"
	"repro/internal/table"
	"repro/internal/trace"
	"repro/internal/trend"
)

// Kind distinguishes tables from figures in the registry.
type Kind string

// Experiment kinds.
const (
	KindTable  Kind = "table"
	KindFigure Kind = "figure"
)

// Experiment is one reproducible table or figure. Exactly one of Table
// or Figure is set, matching Kind.
type Experiment struct {
	ID    string // e.g. "T2", "F3"
	Title string
	Kind  Kind
	// Table builds the table from a completed run, once per Artifacts:
	// every format renders the same shared, read-only table.
	Table func(a *Artifacts) (*report.Table, error)
	// Figure renders SVG from a completed run.
	Figure func(a *Artifacts, w io.Writer) error

	// What the experiment is built from: its render key's inputs (see
	// renderkey.go), as a stage spec's deps, inputs and version are its
	// Merkle key's. reads names the stages whose outputs it reads, each
	// an exact stage name or a family prefix ending in "*"; config names
	// the Config fields it reads directly, by their Fingerprint names;
	// version is bumped when the experiment's rendering changes.
	reads   []string
	config  []string
	version string
}

// Filename returns the artifact base name ("table2", "figure3").
func (e Experiment) Filename() string {
	if e.Kind == KindTable {
		return "table" + e.ID[1:]
	}
	return "figure" + e.ID[1:]
}

// The stage sets experiments read. A cohort experiment reads the
// responses and their raked weights (with raking off the rake stages
// are absent and add no key); the trace family feeds Jobs and JobsByYr
// through the uncached jobs-merge; the modlog family (every year plus
// the merge) feeds ModAgg and ModEventsSim.
var (
	readsCohorts   = []string{"cohort-*", "rake-*"}
	readsCohort24  = []string{"cohort-2024", "rake-2024"}
	readsTraces    = []string{"trace-*"}
	readsTelemetry = []string{"modlog-*"}
	readsPanel     = []string{"panel"}
	readsSim       = []string{"sim-policy"}
	readsSims      = []string{"sim-*"}
)

// registry lists every experiment in presentation order: the
// paper-core set, then the extensions. The IDs match DESIGN.md's
// reconstructed evaluation index.
var registry = declared([]Experiment{
	{ID: "T1", Title: "Respondent demographics by field and career stage", Kind: KindTable, Table: table1,
		reads: readsCohorts, version: "1"},
	{ID: "T2", Title: "Programming-language usage by cohort", Kind: KindTable, Table: table2,
		reads: readsCohorts, version: "1"},
	{ID: "T3", Title: "Parallelism and hardware usage by cohort", Kind: KindTable, Table: table3,
		reads: readsCohorts, version: "1"},
	{ID: "T4", Title: "Software-engineering practice prevalence", Kind: KindTable, Table: table4,
		reads: readsCohorts, version: "1"},
	{ID: "T5", Title: "Cluster workload mix by year", Kind: KindTable, Table: table5,
		reads: readsTraces, version: "1"},
	{ID: "T6", Title: "2024-only tooling by field heterogeneity", Kind: KindTable, Table: table6,
		reads: readsCohort24, version: "1"},
	{ID: "T7", Title: "Survey vs telemetry concordance", Kind: KindTable, Table: table7,
		reads: slices.Concat(readsCohorts, readsTelemetry), config: []string{"simyear"}, version: "1"},
	{ID: "F1", Title: "Language adoption trend from module loads", Kind: KindFigure, Figure: figure1,
		reads: readsTelemetry, version: "1"},
	{ID: "F2", Title: "GPU share of compute per year", Kind: KindFigure, Figure: figure2,
		reads: readsTraces, version: "1"},
	{ID: "F3", Title: "Job-size CDF by cohort year", Kind: KindFigure, Figure: figure3,
		reads: readsTraces, config: []string{"simyear"}, version: "1"},
	{ID: "F4", Title: "Queue wait vs job width", Kind: KindFigure, Figure: figure4,
		reads: readsSim, version: "1"},
	{ID: "F5", Title: "Cluster utilization timeline", Kind: KindFigure, Figure: figure5,
		reads: readsSim, version: "1"},
	{ID: "F6", Title: "Practice co-adoption heatmap", Kind: KindFigure, Figure: figure6,
		reads: readsCohort24, version: "1"},
	{ID: "F7", Title: "Core-hours by research field", Kind: KindFigure, Figure: figure7,
		reads: readsTraces, config: []string{"simyear"}, version: "1"},
	{ID: "F8", Title: "Raking convergence", Kind: KindFigure, Figure: figure8,
		reads: readsCohort24, version: "1"},
	{ID: "T8", Title: "Scheduler policy comparison", Kind: KindTable, Table: table8,
		reads: readsSims, config: []string{"simyear"}, version: "1"},
	{ID: "T9", Title: "Formal software training by cohort", Kind: KindTable, Table: table9,
		reads: readsCohorts, version: "1"},
	{ID: "T10", Title: "Module co-load affinities", Kind: KindTable, Table: table10,
		reads: readsTelemetry, config: []string{"simyear"}, version: "1"},
	{ID: "F9", Title: "Fitted adoption curves with projection", Kind: KindFigure, Figure: figure9,
		reads: readsTelemetry, version: "1"},
	{ID: "F10", Title: "Queue depth under FCFS vs backfill", Kind: KindFigure, Figure: figure10,
		reads: []string{"sim-policy", "sim-fcfs"}, version: "1"},
	{ID: "T11", Title: "Panel language retention and adoption", Kind: KindTable, Table: table11,
		reads: readsPanel, version: "1"},
	{ID: "F11", Title: "Panel language transition matrix", Kind: KindFigure, Figure: figure11,
		reads: readsPanel, version: "1"},
	{ID: "T12", Title: "Data-quality screening summary", Kind: KindTable, Table: table12,
		reads: readsCohorts, config: []string{"noiserate"}, version: "1"},
	{ID: "T13", Title: "Reported bottlenecks coded from free text", Kind: KindTable, Table: table13,
		reads: readsCohorts, version: "1"},
	{ID: "T14", Title: "Adoption model comparison (logistic vs Bass)", Kind: KindTable, Table: table14,
		reads: readsTelemetry, version: "1"},
	{ID: "T15", Title: "Usage concentration by year", Kind: KindTable, Table: table15,
		reads: readsTraces, config: []string{"traceyears"}, version: "1"},
	{ID: "F12", Title: "Lorenz curve of per-user core-hours", Kind: KindFigure, Figure: figure12,
		reads: readsTraces, config: []string{"simyear"}, version: "1"},
	{ID: "T16", Title: "Seed sensitivity of headline estimates", Kind: KindTable, Table: table16,
		config: []string{"seed", "n2011", "n2024"}, version: "1"},
	{ID: "F13", Title: "Wait-time distribution by policy", Kind: KindFigure, Figure: figure13,
		reads: readsSims, version: "1"},
})

// declared wraps every experiment so it loads the held stages its
// reads declare before it builds — the declarations are the access path
// to a held run — and memoizes each table build per Artifacts, so a run
// builds each table once however many formats render it.
func declared(exps []Experiment) []Experiment {
	for i, e := range exps {
		if build := e.Table; build != nil {
			exps[i].Table = func(a *Artifacts) (*report.Table, error) {
				return a.table(e.ID, func(a *Artifacts) (*report.Table, error) {
					if err := a.load(e.readsStage); err != nil {
						return nil, err
					}
					return build(a)
				})
			}
		}
		if fig := e.Figure; fig != nil {
			exps[i].Figure = func(a *Artifacts, w io.Writer) error {
				if err := a.load(e.readsStage); err != nil {
					return err
				}
				return fig(a, w)
			}
		}
	}
	return exps
}

// registryIndex maps each experiment ID to its registry entry.
var registryIndex = func() map[string]Experiment {
	index := make(map[string]Experiment, len(registry))
	for _, e := range registry {
		index[e.ID] = e
	}
	return index
}()

// Registry returns every experiment in presentation order, as a copy
// the caller may keep or modify.
func Registry() []Experiment { return slices.Clone(registry) }

// Lookup returns the experiment with the given ID.
func Lookup(id string) (Experiment, error) {
	if e, ok := registryIndex[id]; ok {
		return e, nil
	}
	return Experiment{}, fmt.Errorf("core: unknown experiment %q", id)
}

// ---- tables ----

func table1(a *Artifacts) (*report.Table, error) {
	t := report.NewTable("Table 1: Respondent demographics (weighted shares)",
		"stratum", "category", "2011", "2024", "frame")
	for _, spec := range []struct {
		label, qid string
		cats       []string
		frame11    map[string]float64
	}{
		{"field", survey.QField, survey.Fields, a.Model2024.FieldShare},
		{"career", survey.QCareer, survey.CareerStages, a.Model2024.CareerShare},
	} {
		tab11, err := a.Tabulation(2011, spec.qid)
		if err != nil {
			return nil, err
		}
		tab24, err := a.Tabulation(2024, spec.qid)
		if err != nil {
			return nil, err
		}
		for _, cat := range spec.cats {
			if err := t.AddRow(spec.label, cat,
				report.Pct(tab11.Share(cat)), report.Pct(tab24.Share(cat)),
				report.Pct(spec.frame11[cat])); err != nil {
				return nil, err
			}
		}
	}
	t.Footnote = fmt.Sprintf("n=%d (2011), n=%d (2024); effective n after raking: %.0f, %.0f",
		len(a.Cohort2011), len(a.Cohort2024), a.Rake2011.EffectiveN, a.Rake2024.EffectiveN)
	return t, nil
}

func deltaTable(a *Artifacts, title, qid string, options []string) (*report.Table, error) {
	deltas, err := trend.CompareCohorts(a.Instrument, qid, options, a.Cohort2011, a.Cohort2024)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(title,
		"option", "2011", "95% CI", "2024", "95% CI", "delta", "OR", "q")
	for _, d := range deltas {
		if err := t.AddRow(d.Option,
			report.Pct(d.ShareA), report.CI(d.CIA.Lo, d.CIA.Hi),
			report.Pct(d.ShareB), report.CI(d.CIB.Lo, d.CIB.Hi),
			fmt.Sprintf("%+.1fpp", d.Diff*100),
			report.F(d.OddsRatio, 2), report.PValue(d.Q)); err != nil {
			return nil, err
		}
	}
	bases, err := trend.EffectiveBases(a.Instrument, qid, a.Cohort2011, a.Cohort2024)
	if err != nil {
		return nil, err
	}
	t.Footnote = fmt.Sprintf("weighted; effective bases %.0f / %.0f; q = BH-adjusted two-proportion p", bases[0], bases[1])
	return t, nil
}

func table2(a *Artifacts) (*report.Table, error) {
	return deltaTable(a, "Table 2: Programming-language usage by cohort", survey.QLanguages, nil)
}

func table3(a *Artifacts) (*report.Table, error) {
	t, err := deltaTable(a, "Table 3: Parallelism and hardware usage by cohort", survey.QParallelism, nil)
	if err != nil {
		return nil, err
	}
	// Append the cohort×mode chi-square as a footnote statistic.
	tab := cohortContingency(a, survey.QParallelism)
	res, err := tab.ChiSquare()
	if err != nil {
		return nil, err
	}
	t.Footnote += fmt.Sprintf("; cohort x mode chi2=%.1f (df=%d, p=%s, V=%.2f)",
		res.Stat, res.DF, report.PValue(res.P), res.CramerV)
	return t, nil
}

// cohortContingency counts option selections by cohort for a multi-choice
// question (unweighted raw counts, as chi-square requires).
func cohortContingency(a *Artifacts, qid string) *stats.Contingency {
	q, _ := a.Instrument.Question(qid)
	tab, err := stats.NewContingency(2, len(q.Options))
	if err != nil {
		panic(err)
	}
	for ci, cohort := range [][]*survey.Response{a.Cohort2011, a.Cohort2024} {
		for _, r := range cohort {
			for oi, opt := range q.Options {
				if r.Selected(qid, opt) {
					if err := tab.Add(ci, oi, 1); err != nil {
						panic(err)
					}
				}
			}
		}
	}
	return tab
}

func table4(a *Artifacts) (*report.Table, error) {
	return deltaTable(a, "Table 4: Software-engineering practice prevalence", survey.QPractices, nil)
}

func table5(a *Artifacts) (*report.Table, error) {
	sums, err := a.JobSummaries()
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Table 5: Cluster workload mix by year",
		"year", "jobs", "cpu-hours", "gpu-hours", "gpu-job share", "median cores", "mean cores", "p99 cores", "failed")
	for _, s := range sums {
		if err := t.AddRow(fmt.Sprintf("%d", s.Year), fmt.Sprintf("%d", s.Jobs),
			report.F(s.CPUHours, 0), report.F(s.GPUHours, 0),
			report.Pct(s.GPUJobShare), report.F(s.MedianCores, 0),
			report.F(s.MeanCores, 1), report.F(s.P99Cores, 0),
			report.Pct(s.FailedShare)); err != nil {
			return nil, err
		}
	}
	t.Footnote = "one representative month per year, synthetic campus workload"
	return t, nil
}

func table6(a *Artifacts) (*report.Table, error) {
	t := report.NewTable("Table 6: 2024-only tooling, overall and by-field heterogeneity",
		"tool", "overall", "95% CI", "min field", "max field", "q(heterogeneity)")
	ps := make([]float64, 0, len(survey.ModernTools))
	type row struct {
		tool, ci   string
		overall    float64
		minF, maxF string
	}
	rows := make([]row, 0, len(survey.ModernTools))
	// One weighted tabulation serves every tool's overall share.
	overallTab, err := a.Tabulation(2024, survey.QModernTools)
	if err != nil {
		return nil, err
	}
	for _, tool := range survey.ModernTools {
		byField, err := trend.ByField(a.Instrument, survey.QModernTools, tool, a.Cohort2024)
		if err != nil {
			return nil, err
		}
		overall := overallTab.Share(tool)
		iv, err := stats.WilsonInterval(overall*float64(overallTab.RawBase), float64(overallTab.RawBase), 0.95)
		if err != nil {
			return nil, err
		}
		minF, maxF := byField[0], byField[0]
		for _, fb := range byField {
			if fb.Share < minF.Share {
				minF = fb
			}
			if fb.Share > maxF.Share {
				maxF = fb
			}
		}
		// Heterogeneity: chi-square of tool use across fields (raw counts).
		het, err := fieldHeterogeneity(a, survey.QModernTools, tool)
		if err != nil {
			return nil, err
		}
		ps = append(ps, het)
		rows = append(rows, row{
			tool: tool, overall: overall, ci: report.CI(iv.Lo, iv.Hi),
			minF: fmt.Sprintf("%s (%s)", minF.Field, report.Pct(minF.Share)),
			maxF: fmt.Sprintf("%s (%s)", maxF.Field, report.Pct(maxF.Share)),
		})
	}
	qs, err := stats.BHAdjust(ps)
	if err != nil {
		return nil, err
	}
	for i, r := range rows {
		if err := t.AddRow(r.tool, report.Pct(r.overall), r.ci, r.minF, r.maxF, report.PValue(qs[i])); err != nil {
			return nil, err
		}
	}
	t.Footnote = "2024 cohort only; heterogeneity = chi-square of adoption across fields, BH-adjusted"
	return t, nil
}

// fieldHeterogeneity returns the chi-square p for option adoption
// varying across fields.
func fieldHeterogeneity(a *Artifacts, qid, option string) (float64, error) {
	counts := map[string][2]float64{} // field -> [selected, not]
	for _, r := range a.Cohort2024 {
		if !r.Has(qid) {
			continue
		}
		f := r.Choice(survey.QField)
		c := counts[f]
		if r.Selected(qid, option) {
			c[0]++
		} else {
			c[1]++
		}
		counts[f] = c
	}
	fields := make([]string, 0, len(counts))
	for f := range counts {
		if c := counts[f]; c[0]+c[1] > 0 {
			fields = append(fields, f)
		}
	}
	sort.Strings(fields)
	if len(fields) < 2 {
		return 1, nil
	}
	flat := make([]float64, 0, len(fields)*2)
	for _, f := range fields {
		flat = append(flat, counts[f][0], counts[f][1])
	}
	tab, err := stats.FromCounts(len(fields), 2, flat)
	if err != nil {
		return 0, err
	}
	res, err := tab.GTest() // sparse-tolerant
	if err != nil {
		return 0, err
	}
	return res.P, nil
}

func table7(a *Artifacts) (*report.Table, error) {
	aggA, err := a.ModAggFor(2011)
	if err != nil {
		return nil, err
	}
	aggB, err := a.ModAggFor(a.Config.SimYear)
	if err != nil {
		return nil, err
	}
	rows, err := trend.LanguageConcordance(a.Instrument, a.Cohort2011, a.Cohort2024,
		aggA, aggB, trend.DefaultLanguageModuleMap())
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Table 7: Survey vs telemetry concordance (2024)",
		"language", "survey share", "telemetry share", "gap", "trend agrees")
	for _, c := range rows {
		agree := "yes"
		if !c.SameDirection {
			agree = "no"
		}
		if err := t.AddRow(c.Construct, report.Pct(c.SurveyShare),
			report.Pct(c.TelemetryShare), fmt.Sprintf("%+.1fpp", c.Gap*100), agree); err != nil {
			return nil, err
		}
	}
	t.Footnote = "telemetry share = fraction of cluster users loading the module at least once"
	return t, nil
}

// ---- figures ----

func figure1(a *Artifacts, w io.Writer) error {
	modules := []string{"python", "matlab", "fortran", "cuda", "r"}
	xs := make([]float64, len(a.ModAgg))
	for i, ys := range a.ModAgg {
		xs[i] = float64(ys.Year)
	}
	series := make([]report.LineSeries, 0, len(modules))
	for _, m := range modules {
		_, shares := modlog.Series(a.ModAgg, m)
		series = append(series, report.LineSeries{Name: m, Ys: shares})
	}
	return report.LineChart(w, "Figure 1: Module adoption per year (share of cluster users)",
		xs, series, "year", "share of users", true)
}

func figure2(a *Artifacts, w io.Writer) error {
	sums, err := a.JobSummaries()
	if err != nil {
		return err
	}
	xs := make([]float64, len(sums))
	gpuShare := make([]float64, len(sums))
	gpuJobShare := make([]float64, len(sums))
	for i, s := range sums {
		xs[i] = float64(s.Year)
		if s.CPUHours+s.GPUHours > 0 {
			gpuShare[i] = s.GPUHours / (s.CPUHours + s.GPUHours)
		}
		gpuJobShare[i] = s.GPUJobShare
	}
	return report.LineChart(w, "Figure 2: GPU adoption in cluster telemetry",
		xs, []report.LineSeries{
			{Name: "gpu-hours share", Ys: gpuShare},
			{Name: "gpu-job share", Ys: gpuJobShare},
		}, "year", "share", true)
}

func figure3(a *Artifacts, w io.Writer) error {
	var series []report.LineSeries
	var pointSets [][]float64
	for _, year := range []int{2011, a.Config.SimYear} {
		jobs, ok := a.JobsByYr[year]
		if !ok {
			return fmt.Errorf("core: figure3: no jobs for %d", year)
		}
		cores := make([]float64, 0, jobs.Len(table.Exact))
		if err := table.Each[trace.Job](jobs, func(j trace.Job) bool {
			cores = append(cores, float64(j.Cores()))
			return true
		}); err != nil {
			return err
		}
		pts, probs, err := stats.ECDF(cores)
		if err != nil {
			return err
		}
		// Thin the ECDF so figures stay small: keep every kth point.
		k := len(pts)/400 + 1
		var tp, tq []float64
		for i := 0; i < len(pts); i += k {
			tp = append(tp, pts[i])
			tq = append(tq, probs[i])
		}
		tp = append(tp, pts[len(pts)-1])
		tq = append(tq, probs[len(probs)-1])
		series = append(series, report.LineSeries{Name: fmt.Sprintf("%d", year), Ys: tq})
		pointSets = append(pointSets, tp)
	}
	return report.CDFChart(w, "Figure 3: Job-size CDF by year", series, pointSets, "cores per job (log)")
}

func figure4(a *Artifacts, w io.Writer) error {
	// Bucket jobs by width; plot median and p90 wait per bucket.
	buckets := []struct {
		label  string
		lo, hi int // cores, inclusive range
	}{
		{"1", 1, 1}, {"2-16", 2, 16}, {"17-64", 17, 64},
		{"65-256", 65, 256}, {"257-1024", 257, 1024}, {">1024", 1025, 1 << 30},
	}
	cats := make([]string, len(buckets))
	med := make([]float64, len(buckets))
	p90 := make([]float64, len(buckets))
	for bi, b := range buckets {
		cats[bi] = b.label
		var waits []float64
		for _, r := range a.Sim.Results {
			c := r.Job.Cores()
			if c >= b.lo && c <= b.hi {
				waits = append(waits, float64(r.Wait)/3600)
			}
		}
		if len(waits) == 0 {
			continue
		}
		m, err := stats.Quantile(waits, 0.5)
		if err != nil {
			return err
		}
		p, err := stats.Quantile(waits, 0.9)
		if err != nil {
			return err
		}
		med[bi], p90[bi] = m, p
	}
	return report.GroupedBarChart(w, fmt.Sprintf("Figure 4: Queue wait vs job width (%s)", a.Sim.Metrics.Policy),
		cats, []report.BarSeries{
			{Name: "median wait (h)", Values: med},
			{Name: "p90 wait (h)", Values: p90},
		}, "hours", false)
}

func figure5(a *Artifacts, w io.Writer) error {
	samples := a.Sim.Samples
	if len(samples) < 2 {
		return fmt.Errorf("core: figure5: only %d samples", len(samples))
	}
	// Thin to <= 300 points.
	k := len(samples)/300 + 1
	var xs []float64
	var cpu, gpu []float64
	for i := 0; i < len(samples); i += k {
		xs = append(xs, float64(samples[i].Time)/86400)
		cpu = append(cpu, samples[i].CPUUtil)
		gpu = append(gpu, samples[i].GPUUtil)
	}
	return report.LineChart(w, "Figure 5: Cluster utilization over the simulated month",
		xs, []report.LineSeries{
			{Name: "cpu cores busy", Ys: cpu},
			{Name: "gpus busy", Ys: gpu},
		}, "day", "utilization", true)
}

func figure6(a *Artifacts, w io.Writer) error {
	items := []struct{ qid, opt string }{
		{survey.QPractices, "version control"},
		{survey.QPractices, "automated testing"},
		{survey.QPractices, "continuous integration"},
		{survey.QPractices, "code review"},
		{survey.QParallelism, "gpu"},
		{survey.QModernTools, "ai code assistants"},
		{survey.QModernTools, "containers (docker/apptainer)"},
	}
	n := len(items)
	labels := make([]string, n)
	matrix := make([][]float64, n)
	for i := range matrix {
		matrix[i] = make([]float64, n)
		labels[i] = trend.HeatmapLabel(items[i].opt)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				matrix[i][j] = 1
				continue
			}
			phi, err := trend.CoAdoption(a.Instrument, items[i].qid, items[i].opt,
				items[j].qid, items[j].opt, a.Cohort2024)
			if err != nil {
				return err
			}
			matrix[i][j] = phi
		}
	}
	return report.Heatmap(w, "Figure 6: Practice co-adoption (phi), 2024 cohort", labels, matrix, 1)
}

func figure7(a *Artifacts, w io.Writer) error {
	jobs := a.JobsByYr[a.Config.SimYear]
	cpuH := map[string]float64{}
	gpuH := map[string]float64{}
	// Float accumulation streams in row order (FoldSeq), so the sums
	// associate identically on every run.
	if _, err := table.FoldSeq[trace.Job](jobs, struct{}{}, func(z struct{}, j trace.Job) struct{} {
		cpuH[j.Account] += j.CPUHours()
		gpuH[j.Account] += j.GPUHours()
		return z
	}); err != nil {
		return err
	}
	fields := make([]string, 0, len(cpuH))
	for f := range cpuH {
		fields = append(fields, f)
	}
	// Ties break by account name: map order must never reach the bytes.
	sort.Slice(fields, func(i, j int) bool {
		ti, tj := cpuH[fields[i]]+gpuH[fields[i]], cpuH[fields[j]]+gpuH[fields[j]]
		if ti != tj {
			return ti > tj
		}
		return fields[i] < fields[j]
	})
	if len(fields) > 10 {
		fields = fields[:10]
	}
	cpu := make([]float64, len(fields))
	gpu := make([]float64, len(fields))
	for i, f := range fields {
		cpu[i] = cpuH[f]
		gpu[i] = gpuH[f]
	}
	return report.StackedBarChart(w, fmt.Sprintf("Figure 7: Core-hours by field (%d)", a.Config.SimYear),
		fields, []report.BarSeries{
			{Name: "cpu core-hours", Values: cpu},
			{Name: "gpu-hours", Values: gpu},
		}, "hours")
}

func figure8(a *Artifacts, w io.Writer) error {
	tr := a.Rake2024.DeviationTrace
	if len(tr) == 0 {
		return fmt.Errorf("core: figure8: no raking trace (raking disabled?)")
	}
	// Pad single-iteration traces so the line chart has two points, and
	// plot on a log-ish scale by taking log10 of deviation.
	xs := make([]float64, 0, len(tr)+1)
	ys := make([]float64, 0, len(tr)+1)
	for i, d := range tr {
		xs = append(xs, float64(i+1))
		ys = append(ys, safeNegLog10(d))
	}
	if len(xs) == 1 {
		xs = append(xs, 2)
		ys = append(ys, ys[0])
	}
	return report.LineChart(w, "Figure 8: Raking convergence (2024 cohort)",
		xs, []report.LineSeries{{Name: "-log10(max margin deviation)", Ys: ys}},
		"iteration", "-log10 deviation", false)
}

func safeNegLog10(d float64) float64 {
	if d <= 1e-15 {
		d = 1e-15
	}
	v := -math.Log10(d)
	if v < 0 {
		v = 0
	}
	return v
}
