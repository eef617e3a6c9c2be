package core

// Lazily-memoized derivations over a completed run. The experiment
// registry renders 30+ tables and figures off one Artifacts value, and
// many of them need the same aggregates — weighted cross-tabs of a
// cohort question, per-year job summaries, per-user usage vectors, the
// sim-year co-load matrix. Computing those once and caching them keeps
// the render path O(outputs), not O(outputs × scans). The registry's
// tables themselves are memoized the same way, so the four formats of a
// table share one build.
//
// All cached values are computed on first use, guarded by a sync.Once
// (or a mutex for keyed families), and safe for concurrent renderers.
// Callers must treat returned slices and maps as read-only; they are
// shared across every subsequent caller.

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/modlog"
	"repro/internal/population"
	"repro/internal/report"
	"repro/internal/survey"
	"repro/internal/table"
	"repro/internal/trace"
)

// derivations is the cache embedded in Artifacts. The zero value is
// ready to use, so Artifacts literals need no constructor.
type derivations struct {
	mu     sync.Mutex
	tabs   map[tabKey]tabEntry
	tables map[string]*tableMemo // registry tables by experiment ID

	jobSummariesOnce sync.Once
	jobSummaries     []trace.YearSummary
	jobSummariesErr  error

	usageMu sync.Mutex
	usage   map[int][]float64

	coLoadsOnce sync.Once
	coLoads     []modlog.PairAffinity
	coLoadsErr  error

	panelOnce     sync.Once
	panelW1       []*survey.Response
	panelW2       []*survey.Response
	panelWavesErr error
}

type tabKey struct {
	year int
	qid  string
}

type tabEntry struct {
	tab survey.Tabulation
	err error
}

// tableMemo is one registry table's build, shared by every format.
type tableMemo struct {
	once sync.Once
	tab  *report.Table
	err  error
}

// cohortFor maps a cohort year to its response set.
func (a *Artifacts) cohortFor(year int) ([]*survey.Response, error) {
	switch year {
	case 2011:
		return a.Cohort2011, nil
	case 2024:
		return a.Cohort2024, nil
	}
	return nil, fmt.Errorf("core: no cohort for year %d", year)
}

// Tabulation returns the weighted tabulation of qid over the given
// cohort year (2011 or 2024), computed once per (year, question) pair
// and shared by every render that needs it. The returned value must be
// treated as read-only.
func (a *Artifacts) Tabulation(year int, qid string) (survey.Tabulation, error) {
	key := tabKey{year: year, qid: qid}
	a.derived.mu.Lock()
	if e, ok := a.derived.tabs[key]; ok {
		a.derived.mu.Unlock()
		return e.tab, e.err
	}
	a.derived.mu.Unlock()

	// Compute outside the lock so slow tabulations don't serialize
	// unrelated questions; a duplicate race computes the same value.
	var e tabEntry
	rs, err := a.cohortFor(year)
	if err != nil {
		e.err = err
	} else {
		e.tab, e.err = a.Instrument.Tabulate(qid, rs)
	}
	a.derived.mu.Lock()
	if prev, ok := a.derived.tabs[key]; ok {
		e = prev // first writer wins, keep the cache stable
	} else {
		if a.derived.tabs == nil {
			a.derived.tabs = map[tabKey]tabEntry{}
		}
		a.derived.tabs[key] = e
	}
	a.derived.mu.Unlock()
	return e.tab, e.err
}

// table returns experiment id's table, built by build once per
// Artifacts and shared by every format that renders it. Read-only.
func (a *Artifacts) table(id string, build func(*Artifacts) (*report.Table, error)) (*report.Table, error) {
	a.derived.mu.Lock()
	m, ok := a.derived.tables[id]
	if !ok {
		if a.derived.tables == nil {
			a.derived.tables = map[string]*tableMemo{}
		}
		m = &tableMemo{}
		a.derived.tables[id] = m
	}
	a.derived.mu.Unlock()
	// Build outside the lock, so one slow table (T16) does not hold up
	// the others; the error set first is what a panicking build leaves.
	m.once.Do(func() {
		m.err = fmt.Errorf("core: building %s panicked", id)
		m.tab, m.err = build(a)
	})
	return m.tab, m.err
}

// JobSummaries returns the per-year workload summaries over the full
// multi-year trace, computed once by a single streaming scan of the
// job table. Read-only.
func (a *Artifacts) JobSummaries() ([]trace.YearSummary, error) {
	a.derived.jobSummariesOnce.Do(func() {
		a.derived.jobSummaries, a.derived.jobSummariesErr = trace.SummarizeTable(a.Jobs)
	})
	return a.derived.jobSummaries, a.derived.jobSummariesErr
}

// UserUsageFor returns the sorted per-user core-hour usage vector for
// one trace year, computed once per year. Read-only.
func (a *Artifacts) UserUsageFor(year int) ([]float64, error) {
	a.derived.usageMu.Lock()
	defer a.derived.usageMu.Unlock()
	if vals, ok := a.derived.usage[year]; ok {
		return vals, nil
	}
	jobs, ok := a.JobsByYr[year]
	if !ok {
		return nil, fmt.Errorf("core: no jobs for year %d", year)
	}
	usage, err := trace.UserUsageTable(jobs)
	if err != nil {
		return nil, err
	}
	vals := make([]float64, 0, len(usage))
	for _, v := range usage {
		vals = append(vals, v)
	}
	sort.Float64s(vals)
	if a.derived.usage == nil {
		a.derived.usage = map[int][]float64{}
	}
	a.derived.usage[year] = vals
	return vals, nil
}

// CoLoadPairs returns the module co-load affinities for the sim year,
// computed once off the telemetry event table in one set-union scan.
// Read-only.
func (a *Artifacts) CoLoadPairs() ([]modlog.PairAffinity, error) {
	a.derived.coLoadsOnce.Do(func() {
		if a.ModEventsSim == nil || a.ModEventsSim.Len(table.Exact) == 0 {
			a.derived.coLoadsErr = fmt.Errorf("core: no telemetry events for sim year %d", a.Config.SimYear)
			return
		}
		a.derived.coLoads, a.derived.coLoadsErr = modlog.CoLoadsTable(a.ModEventsSim, a.Config.SimYear)
	})
	return a.derived.coLoads, a.derived.coLoadsErr
}

// PanelWaves returns the panel members' wave-1 and wave-2 response
// views, built once. Read-only.
func (a *Artifacts) PanelWaves() (w1, w2 []*survey.Response, err error) {
	a.derived.panelOnce.Do(func() {
		if len(a.Panel) == 0 {
			a.derived.panelWavesErr = fmt.Errorf("core: panel experiments need Config.PanelN > 0")
			return
		}
		a.derived.panelW1 = population.Wave1Responses(a.Panel)
		a.derived.panelW2 = population.Wave2Responses(a.Panel)
	})
	return a.derived.panelW1, a.derived.panelW2, a.derived.panelWavesErr
}
