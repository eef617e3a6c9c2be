package core

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/table"
	"repro/internal/trace"
)

// smallConfig keeps integration tests fast: two trace years, small
// cohorts.
func smallConfig() Config {
	return Config{
		Seed:       7,
		N2011:      150,
		N2024:      300,
		TraceYears: []int{2011, 2015, 2019, 2024},
		SimYear:    2024,
		Policy:     sched.EASYBackfill,
		Rake:       true,
		PanelN:     150,
	}
}

// runOnce caches one pipeline run across the tests in this package.
var cached *Artifacts

func artifacts(t *testing.T) *Artifacts {
	t.Helper()
	if cached == nil {
		a, err := Run(smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		cached = a
	}
	return cached
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{},
		{N2011: 10, N2024: 0, TraceYears: []int{2024}, SimYear: 2024},
		{N2011: 10, N2024: 10, TraceYears: nil, SimYear: 2024},
		{N2011: 10, N2024: 10, TraceYears: []int{2024, 2024}, SimYear: 2024},
		{N2011: 10, N2024: 10, TraceYears: []int{2023}, SimYear: 2024},
		{N2011: 10, N2024: 10, TraceYears: []int{1800}, SimYear: 1800},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestRunProducesCompleteArtifacts(t *testing.T) {
	a := artifacts(t)
	// smallConfig leaves NoiseRate at 0, so screening drops nothing.
	if len(a.Cohort2011) != 150 || len(a.Cohort2024) != 300 {
		t.Fatalf("cohorts %d/%d", len(a.Cohort2011), len(a.Cohort2024))
	}
	if !a.Rake2011.Converged || !a.Rake2024.Converged {
		t.Fatalf("raking did not converge: %+v %+v", a.Rake2011, a.Rake2024)
	}
	n2011 := a.JobsByYr[2011].Len(table.Exact)
	n2024 := a.JobsByYr[2024].Len(table.Exact)
	if n2011 == 0 || n2024 == 0 {
		t.Fatal("missing trace years")
	}
	if a.JobCount() <= n2011+n2024 {
		t.Fatal("job totals inconsistent")
	}
	if len(a.ModAgg) != 4 {
		t.Fatalf("%d telemetry years", len(a.ModAgg))
	}
	if a.Sim == nil || a.SimFCFS == nil {
		t.Fatal("missing scheduler results")
	}
	if a.Sim.Metrics.MeanWait > a.SimFCFS.Metrics.MeanWait {
		t.Fatalf("backfill mean wait %.0f above FCFS %.0f",
			a.Sim.Metrics.MeanWait, a.SimFCFS.Metrics.MeanWait)
	}
	if _, err := a.ModAggFor(2024); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ModAggFor(1999); err == nil {
		t.Fatal("missing year accepted")
	}
}

// Worker-count determinism is covered comprehensively (deep equality
// over every artifact field plus serialized byte-identity) by
// TestRunWorkerCountEquivalence in equivalence_test.go.

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	if len(reg) != 29 {
		t.Fatalf("%d experiments", len(reg))
	}
	// Every entry declares its inputs (render keys derive from them): a
	// version tag, and the stages or config fields it reads, each naming
	// a cached stage of the default config or a fingerprint field.
	cfg := DefaultConfig()
	specs, err := stages(cfg, newArtifacts(cfg))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
		if e.version == "" || len(e.reads)+len(e.config) == 0 {
			t.Fatalf("%s: declares no version or no inputs", e.ID)
		}
		for _, r := range e.reads {
			if !slices.ContainsFunc(specs, func(s spec) bool { return s.encode != nil && covers(r, s.name) }) {
				t.Fatalf("%s: read %q names no cached stage", e.ID, r)
			}
		}
		if _, err := configSubset(cfg, e.config); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		switch e.Kind {
		case KindTable:
			if e.Table == nil || e.Figure != nil {
				t.Fatalf("%s: table experiment miswired", e.ID)
			}
			if !strings.HasPrefix(e.Filename(), "table") {
				t.Fatalf("%s filename %s", e.ID, e.Filename())
			}
		case KindFigure:
			if e.Figure == nil || e.Table != nil {
				t.Fatalf("%s: figure experiment miswired", e.ID)
			}
			if !strings.HasPrefix(e.Filename(), "figure") {
				t.Fatalf("%s filename %s", e.ID, e.Filename())
			}
		default:
			t.Fatalf("%s: unknown kind %q", e.ID, e.Kind)
		}
	}
	if _, err := Lookup("T2"); err != nil {
		t.Fatal(err)
	}
	if _, err := Lookup("T99"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// Callers own the slice Registry returns.
	reg[0].ID = "mutated"
	if Registry()[0].ID != "T1" {
		t.Fatal("Registry shares its backing array with callers")
	}
}

// TestFigure7TiesBreakByAccount: accounts with equal core-hours print
// in name order, not in map order, so every render of the same jobs is
// the same byte sequence.
func TestFigure7TiesBreakByAccount(t *testing.T) {
	var jobs []trace.Job
	for i, acct := range []string{"physics", "biology", "chemistry", "economics", "astronomy", "geology"} {
		jobs = append(jobs, trace.Job{ID: uint64(i + 1), User: "u", Account: acct, Partition: "cpu",
			Year: 2024, Nodes: 1, CoresPer: 4, Limit: 7200, Elapsed: 3600, State: trace.StateCompleted, Language: "python"})
	}
	tab := table.FromSlice[trace.Job](trace.JobCodec{}, jobs)
	cfg := smallConfig()
	a := &Artifacts{Config: cfg, JobsByYr: map[int]trace.JobTable{cfg.SimYear: tab}}
	var first []byte
	for i := 0; i < 50; i++ {
		var buf bytes.Buffer
		if err := figure7(a, &buf); err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("render %d of tied accounts differs from the first", i)
		}
	}
	pos := func(s string) int { return bytes.Index(first, []byte(">"+s+"<")) }
	for _, pair := range [][2]string{{"astronomy", "biology"}, {"chemistry", "economics"}, {"geology", "physics"}} {
		if p, q := pos(pair[0]), pos(pair[1]); p < 0 || q < 0 || p > q {
			t.Errorf("%s (at %d) does not precede %s (at %d)", pair[0], p, pair[1], q)
		}
	}
}

// TestRegistryTablesBuiltOnce: a registry table is built once per
// Artifacts, however many callers (formats) ask for it concurrently.
func TestRegistryTablesBuiltOnce(t *testing.T) {
	a := artifacts(t)
	e, err := Lookup("T5")
	if err != nil {
		t.Fatal(err)
	}
	tabs := make(chan *report.Table, 8)
	for i := 0; i < cap(tabs); i++ {
		go func() {
			tab, err := e.Table(a)
			if err != nil {
				t.Error(err)
			}
			tabs <- tab
		}()
	}
	first := <-tabs
	for i := 1; i < cap(tabs); i++ {
		if got := <-tabs; got != first {
			t.Fatal("concurrent callers got different table builds")
		}
	}
}

func TestAllTablesRender(t *testing.T) {
	a := artifacts(t)
	for _, e := range Registry() {
		if e.Kind != KindTable {
			continue
		}
		tab, err := e.Table(a)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s: empty table", e.ID)
		}
		var buf bytes.Buffer
		if err := tab.WriteASCII(&buf); err != nil {
			t.Fatalf("%s ascii: %v", e.ID, err)
		}
		if err := tab.WriteCSV(&buf); err != nil {
			t.Fatalf("%s csv: %v", e.ID, err)
		}
		if err := tab.WriteMarkdown(&buf); err != nil {
			t.Fatalf("%s markdown: %v", e.ID, err)
		}
	}
}

func TestAllFiguresRender(t *testing.T) {
	a := artifacts(t)
	for _, e := range Registry() {
		if e.Kind != KindFigure {
			continue
		}
		var buf bytes.Buffer
		if err := e.Figure(a, &buf); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		out := buf.String()
		if !strings.HasPrefix(out, "<svg") || !strings.Contains(out, "</svg>") {
			t.Fatalf("%s: not svg", e.ID)
		}
	}
}

// Shape assertions on the rendered evaluation: the headline claims from
// DESIGN.md must be visible in the artifacts themselves.
func TestShapeClaims(t *testing.T) {
	a := artifacts(t)
	// T2: python rises to dominance.
	tab2, err := table2(a)
	if err != nil {
		t.Fatal(err)
	}
	foundPython := false
	for _, row := range tab2.Rows {
		if row[0] == "python" {
			foundPython = true
			if !strings.HasPrefix(row[5], "+") {
				t.Fatalf("python delta not positive: %v", row)
			}
		}
	}
	if !foundPython {
		t.Fatal("no python row in table 2")
	}
	// T4: version control ends near-saturation in 2024.
	tab4, err := table4(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab4.Rows {
		if row[0] == "version control" {
			if !strings.HasPrefix(row[5], "+") {
				t.Fatalf("vcs delta not positive: %v", row)
			}
		}
	}
	// Ablation shape: backfill strictly increases started-early jobs.
	if a.Sim.Metrics.BackfillStarts == 0 {
		t.Fatal("no backfills on the 2024 trace")
	}
}

func TestNoiseScreeningInPipeline(t *testing.T) {
	cfg := smallConfig()
	cfg.N2011, cfg.N2024 = 80, 120
	cfg.PanelN = 0
	cfg.NoiseRate = 0.2
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Quality2024.Flags) == 0 {
		t.Fatal("20% noise produced no flags")
	}
	// Hard-flagged respondents must be gone from the analysis cohorts.
	for _, r := range a.Cohort2024 {
		if a.Quality2024.HardIDs[r.ID] {
			t.Fatalf("hard-flagged %s survived into the cohort", r.ID)
		}
	}
	// Raking still converges on the cleaned cohort.
	if cfg.Rake && !a.Rake2024.Converged {
		t.Fatalf("raking failed on cleaned cohort: %+v", a.Rake2024)
	}
	// T12 renders with non-zero counts.
	tab, err := table12(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("%d rows", len(tab.Rows))
	}
}

func TestConfigRejectsBadNoiseRate(t *testing.T) {
	cfg := smallConfig()
	cfg.NoiseRate = 0.9
	if err := cfg.Validate(); err == nil {
		t.Fatal("noise rate 0.9 accepted")
	}
	cfg.NoiseRate = -0.1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative noise rate accepted")
	}
}
