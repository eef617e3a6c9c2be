package sched

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/table"
	"repro/internal/trace"
)

func feedTrace(t *testing.T) []trace.Job {
	t.Helper()
	jobs, err := trace.CampusModel(2024).Generate(rng.New(5).SplitNamed("feed-test"), 1)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

// TestSimulateTableMatchesSlice pins the feed equivalence: the streamed
// simulation is event-for-event identical to the batch one, across
// policies, on a built table and on Concats of built parts.
func TestSimulateTableMatchesSlice(t *testing.T) {
	jobs := feedTrace(t)
	cluster := DefaultCampusCluster()
	parts := func(size int) trace.JobTable {
		var ps []trace.JobTable
		for lo := 0; lo < len(jobs); lo += size {
			ps = append(ps, table.FromSlice[trace.Job](trace.JobCodec{}, jobs[lo:min(lo+size, len(jobs))]))
		}
		return table.Concat(ps...)
	}
	for _, pol := range []Policy{FCFS, EASYBackfill, ConservativeBackfill} {
		opt := Options{Policy: pol, Fairshare: pol == EASYBackfill}
		want, err := Simulate(cluster, jobs, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			tab  trace.JobTable
		}{
			{"built", table.FromSlice[trace.Job](trace.JobCodec{}, jobs)},
			{"parts/64", parts(64)},
			{"parts/4096", parts(4096)},
		} {
			got, err := SimulateTable(cluster, tc.tab, opt)
			if err != nil {
				t.Fatalf("%v/%s: %v", pol, tc.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v/%s: streamed result differs from batch result", pol, tc.name)
			}
		}
	}
}

func TestSimulateTableRejectsOutOfOrderFeed(t *testing.T) {
	jobs := feedTrace(t)[:100]
	jobs[40], jobs[60] = jobs[60], jobs[40] // break arrival order
	tab := table.FromSlice(trace.JobCodec{}, jobs)
	_, err := SimulateTable(DefaultCampusCluster(), tab, Options{Policy: FCFS})
	if err == nil || !strings.Contains(err.Error(), "out of arrival order") {
		t.Fatalf("want out-of-order feed error, got %v", err)
	}
}

func TestSimulateTableValidatesLazily(t *testing.T) {
	jobs := feedTrace(t)[:100]
	jobs[50].Nodes = 10_000 // exceeds any partition
	tab := table.FromSlice(trace.JobCodec{}, jobs)
	_, err := SimulateTable(DefaultCampusCluster(), tab, Options{Policy: FCFS})
	if err == nil || !strings.Contains(err.Error(), "wants") {
		t.Fatalf("want capacity rejection from the streamed feed, got %v", err)
	}
}

func TestSimulateTableEmpty(t *testing.T) {
	tab := table.FromSlice[trace.Job](trace.JobCodec{}, nil)
	if _, err := SimulateTable(DefaultCampusCluster(), tab, Options{Policy: FCFS}); err == nil {
		t.Fatal("want error for empty table")
	}
}

// TestRepeatedArrivalRefused: two jobs sharing a (Submit, ID) pair have
// no arrival order between them, so both entry points refuse the feed,
// sorted or not, with an error naming the job.
func TestRepeatedArrivalRefused(t *testing.T) {
	first, dup, last := mkJob(1, 0, 1, 1, 10), mkJob(2, 5, 1, 1, 10), mkJob(3, 9, 1, 1, 10)
	twin := dup
	twin.User = "u2"
	for _, tc := range []struct {
		name string
		jobs []trace.Job
	}{
		{"sorted", []trace.Job{first, dup, twin, last}},
		{"unsorted", []trace.Job{last, dup, first, twin}},
	} {
		_, err := Simulate(smallCluster(), tc.jobs, Options{Policy: EASYBackfill})
		if err == nil || !strings.Contains(err.Error(), "job 2 ") {
			t.Errorf("Simulate, %s feed: want an error naming job 2, got %v", tc.name, err)
		}
		tab := table.FromSlice(trace.JobCodec{}, tc.jobs)
		_, err = SimulateTable(smallCluster(), tab, Options{Policy: EASYBackfill})
		if err == nil || !strings.Contains(err.Error(), "job 2 ") {
			t.Errorf("SimulateTable, %s feed: want an error naming job 2, got %v", tc.name, err)
		}
	}
}
