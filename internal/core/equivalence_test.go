package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/modlog"
	"repro/internal/sched"
	"repro/internal/table"
	"repro/internal/trace"
)

// equivConfig is deliberately small (two early trace years, modest
// cohorts) so three full pipeline runs stay cheap even under -race.
func equivConfig() Config {
	return Config{
		Seed:       99,
		N2011:      60,
		N2024:      80,
		TraceYears: []int{2011, 2013},
		SimYear:    2013,
		Policy:     sched.EASYBackfill,
		Rake:       true,
		PanelN:     50,
		NoiseRate:  0.05,
	}
}

// assertArtifactsEqual compares every analysis-bearing field of two
// runs. Any divergence means the determinism contract of the stage
// graph is broken.
func assertArtifactsEqual(t *testing.T, labelA, labelB string, x, y *Artifacts) {
	t.Helper()
	// A run restored from a stage cache holds its sims and panel until a
	// render reads them: load every held stage before comparing.
	for _, a := range []*Artifacts{x, y} {
		if err := a.load(func(string) bool { return true }); err != nil {
			t.Fatalf("loading held stages: %v", err)
		}
	}
	check := func(field string, a, b any) {
		t.Helper()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s vs %s: %s differs", labelA, labelB, field)
		}
	}
	check("Cohort2011", x.Cohort2011, y.Cohort2011)
	check("Cohort2024", x.Cohort2024, y.Cohort2024)
	check("Rake2011", x.Rake2011, y.Rake2011)
	check("Rake2024", x.Rake2024, y.Rake2024)
	// Tables are compared by materialized rows here and by accounting
	// bytes below — the storage (resident, held, concatenated) is an
	// execution detail that legitimately differs between runs.
	check("Jobs", jobRows(t, x.Jobs), jobRows(t, y.Jobs))
	if len(x.JobsByYr) != len(y.JobsByYr) {
		t.Fatalf("%s vs %s: JobsByYr year sets differ", labelA, labelB)
	}
	for year, xt := range x.JobsByYr {
		check(fmt.Sprintf("JobsByYr[%d]", year), jobRows(t, xt), jobRows(t, y.JobsByYr[year]))
	}
	check("ModAgg", x.ModAgg, y.ModAgg)
	check("ModEventsSim", eventRows(t, x.ModEventsSim), eventRows(t, y.ModEventsSim))
	check("Quality2011", x.Quality2011, y.Quality2011)
	check("Quality2024", x.Quality2024, y.Quality2024)
	check("Panel", x.Panel, y.Panel)
	check("Sim", x.Sim, y.Sim)
	check("SimFCFS", x.SimFCFS, y.SimFCFS)
	check("SimConservative", x.SimConservative, y.SimConservative)

	// Byte-identity on the serialized forms, the strongest statement of
	// "same artifacts": identical accounting files and survey exports.
	var ja, jb bytes.Buffer
	if err := trace.WriteAccountingTable(&ja, x.Jobs); err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteAccountingTable(&jb, y.Jobs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Fatalf("%s vs %s: serialized accounting differs", labelA, labelB)
	}
	var ca, cb bytes.Buffer
	if err := x.Instrument.WriteJSON(&ca, x.Cohort2024); err != nil {
		t.Fatal(err)
	}
	if err := y.Instrument.WriteJSON(&cb, y.Cohort2024); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca.Bytes(), cb.Bytes()) {
		t.Fatalf("%s vs %s: serialized 2024 cohort differs", labelA, labelB)
	}
}

// TestRunWorkerCountEquivalence guards the determinism contract of the
// stage graph: Workers=1 and Workers=8 must produce deeply-equal,
// byte-identical artifacts, and both must match the sequential
// reference execution of the same graph.
func TestRunWorkerCountEquivalence(t *testing.T) {
	cfg := equivConfig()
	cfg.Workers = 1
	one, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	eight, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := RunSequential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertArtifactsEqual(t, "workers=1", "workers=8", one, eight)
	assertArtifactsEqual(t, "workers=8", "sequential", eight, seq)
}

func jobRows(t *testing.T, tab trace.JobTable) []trace.Job {
	t.Helper()
	rows, err := table.Rows[trace.Job](tab)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func eventRows(t *testing.T, tab modlog.EventTable) []modlog.Event {
	t.Helper()
	rows, err := table.Rows[modlog.Event](tab)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// TestRunShardBatchEquivalence pins the columnar-layer contract from
// DESIGN.md: the worker count, which is also the shard fan-out of every
// order-free table aggregation, is an execution knob — artifacts (rows
// and serialized accounting bytes) are byte-identical across worker
// counts, and the fingerprint does not encode it.
func TestRunShardBatchEquivalence(t *testing.T) {
	base, err := Run(equivConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3, 7} {
		cfg := equivConfig()
		cfg.Workers = workers
		if cfg.Fingerprint() != equivConfig().Fingerprint() {
			t.Fatalf("workers=%d: the worker count leaked into the fingerprint", workers)
		}
		got, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertArtifactsEqual(t, "default", fmt.Sprintf("workers=%d", workers), base, got)
	}
}

// TestTraceScaleReplicas exercises the scaled-trace path: replica 0 of
// each year is bit-identical to the unscaled trace, totals multiply by
// the scale, the concatenated feed stays in arrival order (the
// simulation would reject it otherwise), and the fingerprint changes —
// scaled artifacts must never share a cache slot with unscaled ones.
func TestTraceScaleReplicas(t *testing.T) {
	cfg := equivConfig()
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scaled := cfg
	scaled.TraceScale = 3
	if scaled.Fingerprint() == cfg.Fingerprint() {
		t.Fatal("trace scale did not change the fingerprint")
	}
	a, err := Run(scaled)
	if err != nil {
		t.Fatal(err)
	}
	for year, bt := range base.JobsByYr {
		want := jobRows(t, bt)
		got := jobRows(t, a.JobsByYr[year])
		// Each replica draws its own job count from its own rng stream,
		// so the total is ~3× the base, not exactly.
		if len(got) < 2*len(want) || len(got) > 4*len(want) {
			t.Fatalf("year %d: %d jobs at scale 3, base year has %d", year, len(got), len(want))
		}
		if !reflect.DeepEqual(got[:len(want)], want) {
			t.Fatalf("year %d: replica 0 differs from the unscaled trace", year)
		}
		ids := map[uint64]bool{}
		prev := got[0]
		for i, j := range got {
			if ids[j.ID] {
				t.Fatalf("year %d: duplicate job id %d", year, j.ID)
			}
			ids[j.ID] = true
			if i > 0 && (j.Submit < prev.Submit || (j.Submit == prev.Submit && j.ID <= prev.ID)) {
				t.Fatalf("year %d: scaled trace out of arrival order at row %d", year, i)
			}
			prev = j
		}
	}
	if a.Sim == nil || a.Sim.Metrics.Jobs != a.JobsByYr[scaled.SimYear].Len(table.Exact) {
		t.Fatal("simulation did not cover the scaled sim-year trace")
	}
}
