package sched

import (
	"slices"
	"testing"

	"repro/internal/rng"
	"repro/internal/trace"
)

func TestConservativeBackfillsHarmlessJob(t *testing.T) {
	// Same fixture as the EASY test: 8 spare cores, head needs all 32,
	// tiny job finishes before the head's reservation.
	jobs := []trace.Job{
		mkJob(1, 0, 3, 8, 1000),
		mkJob(2, 10, 4, 8, 500),
		mkJob(3, 20, 1, 1, 100),
	}
	res, err := Simulate(smallCluster(), jobs, Options{Policy: ConservativeBackfill})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[uint64]JobResult{}
	for _, r := range res.Results {
		byID[r.Job.ID] = r
	}
	if byID[3].Start != 20 {
		t.Fatalf("tiny job should backfill at 20, started %d", byID[3].Start)
	}
	if byID[2].Start != 1000 {
		t.Fatalf("head delayed to %d", byID[2].Start)
	}
	if res.Metrics.BackfillStarts != 1 {
		t.Fatalf("backfills=%d", res.Metrics.BackfillStarts)
	}
}

func TestConservativeRefusesHarmfulBackfill(t *testing.T) {
	jobs := []trace.Job{
		mkJob(1, 0, 3, 8, 1000),
		mkJob(2, 10, 4, 8, 500),
		{ID: 3, User: "u2", Account: "bio", Partition: "cpu", Year: 2024,
			Submit: 20, Nodes: 1, CoresPer: 8, Limit: 5000, Elapsed: 4000,
			State: trace.StateCompleted, Language: "c"},
	}
	res, err := Simulate(smallCluster(), jobs, Options{Policy: ConservativeBackfill})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[uint64]JobResult{}
	for _, r := range res.Results {
		byID[r.Job.ID] = r
	}
	if byID[2].Start != 1000 {
		t.Fatalf("head delayed to %d", byID[2].Start)
	}
	if byID[3].Start < byID[2].Start {
		t.Fatalf("harmful backfill at %d", byID[3].Start)
	}
}

// Conservative must never delay the third-queued job's start past what
// it would get under FCFS-with-reservations; in particular the classic
// EASY pathology (backfill delaying job 3's reservation) cannot happen.
func TestConservativeProtectsDeepQueue(t *testing.T) {
	// Machine: 32 cpu cores. Job1 runs 0..1000 (24 cores, limit 1060).
	// Job2 (head) needs 16 and is reserved at 1060 with 16 cores spare.
	// Job4 (8 cores, long limit) fits in that spare, so EASY starts it at
	// t=30 — the classic EASY pathology: it cannot delay the *head*, but
	// it blocks job3 (32 cores) far past its no-backfill start.
	// Conservative also reserves job3, so job4 must wait.
	jobs := []trace.Job{
		mkJob(1, 0, 3, 8, 1000), // 24 cores, limit 1060
		mkJob(2, 10, 2, 8, 500), // head, 16 cores, limit 560
		mkJob(3, 20, 4, 8, 500), // 32 cores, limit 560
		{ID: 4, User: "u9", Account: "x", Partition: "cpu", Year: 2024,
			Submit: 30, Nodes: 1, CoresPer: 8, Limit: 4000, Elapsed: 3500,
			State: trace.StateCompleted, Language: "c"}, // 8 cores, long
	}
	easy, err := Simulate(smallCluster(), jobs, Options{Policy: EASYBackfill})
	if err != nil {
		t.Fatal(err)
	}
	cons, err := Simulate(smallCluster(), jobs, Options{Policy: ConservativeBackfill})
	if err != nil {
		t.Fatal(err)
	}
	get := func(res *Result, id uint64) JobResult {
		for _, r := range res.Results {
			if r.Job.ID == id {
				return r
			}
		}
		t.Fatalf("job %d missing", id)
		return JobResult{}
	}
	// EASY lets job4 backfill at t=30 (spare 8 cores, head unaffected),
	// which delays job3 (needs 24 cores, now blocked by job4 until 3530).
	if get(easy, 4).Start != 30 {
		t.Fatalf("easy should backfill job4 at 30, got %d", get(easy, 4).Start)
	}
	if get(easy, 3).Start <= get(cons, 3).Start {
		t.Fatalf("conservative should protect job3: easy=%d cons=%d",
			get(easy, 3).Start, get(cons, 3).Start)
	}
	// Under conservative, job3 must start no later than its no-backfill
	// reservation (job2's limit-based end, 1060+560=1620).
	if got := get(cons, 3).Start; got > 1620 {
		t.Fatalf("conservative delayed job3 to %d", got)
	}
	// And conservative's job4 start must respect job3's reservation.
	if get(cons, 4).Start <= 30 {
		t.Fatalf("conservative backfilled job4 at %d", get(cons, 4).Start)
	}
}

func TestConservativeInvariantsOnCampusTrace(t *testing.T) {
	jobs, err := trace.CampusModel(2019).Generate(rng.New(15), 0)
	if err != nil {
		t.Fatal(err)
	}
	jobs = jobs[:1500]
	res, err := Simulate(DefaultCampusCluster(), jobs, Options{Policy: ConservativeBackfill})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != len(jobs) {
		t.Fatalf("%d results", len(res.Results))
	}
	for _, r := range res.Results {
		if r.Wait < 0 || r.Start < r.Job.Submit {
			t.Fatalf("bad result %+v", r)
		}
	}
	fcfs, err := Simulate(DefaultCampusCluster(), jobs, Options{Policy: FCFS})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.MeanWait > fcfs.Metrics.MeanWait {
		t.Fatalf("conservative wait %.0f above fcfs %.0f",
			res.Metrics.MeanWait, fcfs.Metrics.MeanWait)
	}
	if res.Metrics.BackfillStarts == 0 {
		t.Fatal("no conservative backfills on a realistic trace")
	}
}

func TestBoundedSlowdownMetric(t *testing.T) {
	// Single job with zero wait: slowdown 1.
	res, err := Simulate(smallCluster(), []trace.Job{mkJob(1, 0, 1, 8, 600)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.BoundedSlowdown != 1 {
		t.Fatalf("slowdown %g", res.Metrics.BoundedSlowdown)
	}
	// Forced queueing: slowdown > 1.
	jobs := []trace.Job{mkJob(1, 0, 4, 8, 1000), mkJob(2, 0, 4, 8, 100)}
	res, err = Simulate(smallCluster(), jobs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.BoundedSlowdown <= 1 {
		t.Fatalf("queued slowdown %g", res.Metrics.BoundedSlowdown)
	}
}

func TestPartitionWaitMetrics(t *testing.T) {
	gpuJob := trace.Job{
		ID: 1, User: "u", Account: "cs", Partition: "gpu", Year: 2024,
		Submit: 0, Nodes: 1, CoresPer: 8, GPUs: 4,
		Limit: 700, Elapsed: 600, State: trace.StateCompleted, Language: "python",
	}
	gpuJob2 := gpuJob
	gpuJob2.ID = 2
	cpuJob := mkJob(3, 0, 1, 8, 100)
	// EASY lets the cpu job start immediately despite the blocked gpu
	// head (strict FCFS would head-block across partitions).
	res, err := Simulate(smallCluster(), []trace.Job{gpuJob, gpuJob2, cpuJob}, Options{Policy: EASYBackfill})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.CPUMeanWait != 0 {
		t.Fatalf("cpu wait %g", res.Metrics.CPUMeanWait)
	}
	if res.Metrics.GPUMeanWait != 300 { // one waits 600s, one 0
		t.Fatalf("gpu wait %g", res.Metrics.GPUMeanWait)
	}
}

func TestProfileOperations(t *testing.T) {
	p := &profile{
		times:   []int64{0, 100, 200},
		cpu:     []int32{8, 16, 32},
		gpuCore: []int32{0, 0, 0},
		gpu:     []int32{0, 0, 0},
	}
	// Needs 16 cores for 150s: at t=0 only 8 free; at t=100, window
	// [100,250) has >= 16 throughout and ends in step 2.
	if si, sj, ok := p.earliestFit(need{cpu: 16}, 150); !ok || si != 1 || sj != 2 {
		t.Fatalf("earliestFit=(%d, %d) ok=%v", si, sj, ok)
	}
	// Needs 32 for 10s: only from t=200, the final step.
	if si, sj, ok := p.earliestFit(need{cpu: 32}, 10); !ok || si != 2 || sj != 2 {
		t.Fatalf("earliestFit=(%d, %d) ok=%v", si, sj, ok)
	}
	// Reserve 8 cores over [100, 250) and re-check: step 2 splits at 250.
	p.reserve(need{cpu: 8}, 1, 2, 250)
	if want := []int32{8, 8, 24, 32}; !slices.Equal(p.cpu, want) {
		t.Fatalf("post-reserve cpu lane %v, want %v", p.cpu, want)
	}
	if si, _, ok := p.earliestFit(need{cpu: 32}, 10); !ok || p.times[si] != 250 {
		t.Fatalf("post-reserve earliestFit=%d ok=%v", p.times[si], ok)
	}
	// A window ending on an existing step start adds no step.
	p.reserve(need{cpu: 8}, 0, 0, 100)
	if len(p.times) != 4 || p.cpu[0] != 0 {
		t.Fatalf("reserve up to a step start: times %v cpu %v", p.times, p.cpu)
	}
	// A demand above even the steady-state step can never fit: the old
	// implementation silently returned the last step start; the
	// incremental one refuses.
	if si, _, ok := p.earliestFit(need{cpu: 64}, 10); ok {
		t.Fatalf("oversized demand got a reservation at step %d", si)
	}
	// Boundary insertion kept steps sorted.
	for i := 1; i < len(p.times); i++ {
		if p.times[i] <= p.times[i-1] {
			t.Fatalf("profile times unsorted: %v", p.times)
		}
	}
}

func TestJainFairness(t *testing.T) {
	// Single job, zero wait: perfectly fair.
	res, err := Simulate(smallCluster(), []trace.Job{mkJob(1, 0, 1, 8, 600)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.UserFairness != 1 {
		t.Fatalf("fairness %g", res.Metrics.UserFairness)
	}
	// Two users, one waits heavily behind the other: fairness < 1.
	j1 := mkJob(1, 0, 4, 8, 5000)
	j2 := mkJob(2, 1, 4, 8, 100)
	j2.User = "u2"
	res, err = Simulate(smallCluster(), []trace.Job{j1, j2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := res.Metrics.UserFairness
	if f <= 0.5 || f >= 1 {
		t.Fatalf("skewed fairness %g should be in (0.5, 1)", f)
	}
	// Fairshare ordering should not lower fairness on a realistic trace.
	jobs, err := trace.CampusModel(2024).Generate(rng.New(21), 0)
	if err != nil {
		t.Fatal(err)
	}
	jobs = jobs[:2000]
	plain, err := Simulate(DefaultCampusCluster(), jobs, Options{Policy: EASYBackfill})
	if err != nil {
		t.Fatal(err)
	}
	fair, err := Simulate(DefaultCampusCluster(), jobs, Options{Policy: EASYBackfill, Fairshare: true})
	if err != nil {
		t.Fatal(err)
	}
	if fair.Metrics.UserFairness < plain.Metrics.UserFairness-0.05 {
		t.Fatalf("fairshare reduced fairness: %.3f vs %.3f",
			fair.Metrics.UserFairness, plain.Metrics.UserFairness)
	}
}
