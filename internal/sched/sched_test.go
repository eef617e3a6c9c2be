package sched

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
	"repro/internal/trace"
)

func smallCluster() Cluster {
	return Cluster{CPUNodes: 4, GPUNodes: 1, CoresPerNode: 8, GPUsPerNode: 4}
}

func mkJob(id uint64, submit int64, nodes, cores int, elapsed int64) trace.Job {
	return trace.Job{
		ID: id, User: "u1", Account: "phys", Partition: "cpu", Year: 2024,
		Submit: submit, Nodes: nodes, CoresPer: cores,
		Limit: elapsed + 60, Elapsed: elapsed, State: trace.StateCompleted,
		Language: "c",
	}
}

func TestClusterValidate(t *testing.T) {
	if err := smallCluster().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Cluster{
		{},
		{CPUNodes: 1, CoresPerNode: 0},
		{CPUNodes: -1, GPUNodes: 2, CoresPerNode: 4, GPUsPerNode: 1},
		{CPUNodes: 1, GPUNodes: 1, CoresPerNode: 4, GPUsPerNode: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad cluster %d accepted", i)
		}
	}
}

func TestSimulateEmptyAndOversized(t *testing.T) {
	if _, err := Simulate(smallCluster(), nil, Options{}); err == nil {
		t.Fatal("no jobs accepted")
	}
	// Job wider than the machine is rejected up front.
	wide := mkJob(1, 0, 100, 8, 100)
	if _, err := Simulate(smallCluster(), []trace.Job{wide}, Options{}); err == nil {
		t.Fatal("impossible job accepted")
	}
	// GPU request on a CPU partition is rejected.
	bad := mkJob(2, 0, 1, 4, 100)
	bad.GPUs = 2
	if _, err := Simulate(smallCluster(), []trace.Job{bad}, Options{}); err == nil {
		t.Fatal("gpus on cpu partition accepted")
	}
}

func TestSingleJobStartsImmediately(t *testing.T) {
	res, err := Simulate(smallCluster(), []trace.Job{mkJob(1, 50, 1, 8, 600)}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := res.Results[0]
	if r.Start != 50 || r.Wait != 0 || r.End() != 650 {
		t.Fatalf("result %+v", r)
	}
	if res.Metrics.Makespan != 650 || res.Metrics.Jobs != 1 {
		t.Fatalf("metrics %+v", res.Metrics)
	}
}

func TestFCFSQueuesWhenFull(t *testing.T) {
	// Cluster: 32 CPU cores. Two 32-core jobs: second waits for first.
	jobs := []trace.Job{
		mkJob(1, 0, 4, 8, 1000),
		mkJob(2, 10, 4, 8, 500),
	}
	res, err := Simulate(smallCluster(), jobs, Options{Policy: FCFS})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[uint64]JobResult{}
	for _, r := range res.Results {
		byID[r.Job.ID] = r
	}
	if byID[1].Start != 0 {
		t.Fatalf("job1 start %d", byID[1].Start)
	}
	if byID[2].Start != 1000 || byID[2].Wait != 990 {
		t.Fatalf("job2 %+v", byID[2])
	}
}

func TestFCFSHeadBlocks(t *testing.T) {
	// Head needs the whole machine; a tiny job behind it must NOT jump
	// ahead under strict FCFS.
	jobs := []trace.Job{
		mkJob(1, 0, 4, 8, 1000), // occupies everything
		mkJob(2, 10, 4, 8, 500), // head of queue, needs everything
		mkJob(3, 20, 1, 1, 100), // tiny, could run but FCFS forbids
	}
	res, err := Simulate(smallCluster(), jobs, Options{Policy: FCFS})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[uint64]JobResult{}
	for _, r := range res.Results {
		byID[r.Job.ID] = r
	}
	if byID[3].Start < byID[2].Start {
		t.Fatalf("FCFS let job3 (start %d) pass job2 (start %d)", byID[3].Start, byID[2].Start)
	}
	if res.Metrics.BackfillStarts != 0 {
		t.Fatalf("FCFS reported %d backfills", res.Metrics.BackfillStarts)
	}
}

func TestEASYBackfillsHarmlessJob(t *testing.T) {
	// Job1 leaves 8 spare cores; the 32-core head cannot start until
	// job1's limit-based release (t=1060), but the tiny job (limit 160s)
	// finishes before that reservation, so it backfills immediately.
	jobs := []trace.Job{
		mkJob(1, 0, 3, 8, 1000), // 24 of 32 cores
		mkJob(2, 10, 4, 8, 500), // head, needs all 32
		mkJob(3, 20, 1, 1, 100), // tiny backfill candidate
	}
	res, err := Simulate(smallCluster(), jobs, Options{Policy: EASYBackfill})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[uint64]JobResult{}
	for _, r := range res.Results {
		byID[r.Job.ID] = r
	}
	if byID[3].Start != 20 {
		t.Fatalf("job3 should backfill at 20, started %d", byID[3].Start)
	}
	// The head must not be delayed past its no-backfill start.
	if byID[2].Start != 1000 {
		t.Fatalf("backfill delayed the head: start %d", byID[2].Start)
	}
	if res.Metrics.BackfillStarts != 1 {
		t.Fatalf("backfills=%d", res.Metrics.BackfillStarts)
	}
}

func TestEASYRefusesHarmfulBackfill(t *testing.T) {
	// Candidate fits in the 8 spare cores now, but its limit crosses the
	// head's reservation and the head needs every core at shadow time,
	// so starting it would delay the head — it must not start.
	jobs := []trace.Job{
		mkJob(1, 0, 3, 8, 1000), // 24 of 32 cores until t=1000
		mkJob(2, 10, 4, 8, 500), // head, needs all 32
		{ID: 3, User: "u2", Account: "bio", Partition: "cpu", Year: 2024,
			Submit: 20, Nodes: 1, CoresPer: 8, Limit: 5000, Elapsed: 4000,
			State: trace.StateCompleted, Language: "c"},
	}
	res, err := Simulate(smallCluster(), jobs, Options{Policy: EASYBackfill})
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

func TestGPUJobsUseGPUPool(t *testing.T) {
	gpuJob := trace.Job{
		ID: 1, User: "u1", Account: "cs", Partition: "gpu", Year: 2024,
		Submit: 0, Nodes: 1, CoresPer: 8, GPUs: 4,
		Limit: 700, Elapsed: 600, State: trace.StateCompleted, Language: "python",
	}
	gpuJob2 := gpuJob
	gpuJob2.ID = 2
	gpuJob2.Submit = 10
	cpuJob := mkJob(3, 20, 4, 8, 100)
	res, err := Simulate(smallCluster(), []trace.Job{gpuJob, gpuJob2, cpuJob}, Options{Policy: EASYBackfill})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[uint64]JobResult{}
	for _, r := range res.Results {
		byID[r.Job.ID] = r
	}
	// Only 4 GPUs: second GPU job waits for the first.
	if byID[2].Start != 600 {
		t.Fatalf("gpu job2 start %d", byID[2].Start)
	}
	// CPU job is unaffected by GPU contention.
	if byID[3].Start != 20 {
		t.Fatalf("cpu job start %d", byID[3].Start)
	}
}

func TestFairshareReordersQueue(t *testing.T) {
	// u-heavy floods the machine; then one job each from u-heavy and
	// u-light arrive while it is busy. With fairshare, u-light goes first.
	var jobs []trace.Job
	jobs = append(jobs, trace.Job{
		ID: 1, User: "u-heavy", Account: "a", Partition: "cpu", Year: 2024,
		Submit: 0, Nodes: 4, CoresPer: 8, Limit: 1100, Elapsed: 1000,
		State: trace.StateCompleted, Language: "c"})
	jobs = append(jobs, trace.Job{
		ID: 2, User: "u-heavy", Account: "a", Partition: "cpu", Year: 2024,
		Submit: 10, Nodes: 4, CoresPer: 8, Limit: 600, Elapsed: 500,
		State: trace.StateCompleted, Language: "c"})
	jobs = append(jobs, trace.Job{
		ID: 3, User: "u-light", Account: "a", Partition: "cpu", Year: 2024,
		Submit: 20, Nodes: 4, CoresPer: 8, Limit: 600, Elapsed: 500,
		State: trace.StateCompleted, Language: "c"})

	fair, err := Simulate(smallCluster(), jobs, Options{Policy: FCFS, Fairshare: true})
	if err != nil {
		t.Fatal(err)
	}
	byID := map[uint64]JobResult{}
	for _, r := range fair.Results {
		byID[r.Job.ID] = r
	}
	if byID[3].Start >= byID[2].Start {
		t.Fatalf("fairshare did not prioritize light user: light=%d heavy=%d",
			byID[3].Start, byID[2].Start)
	}

	strict, err := Simulate(smallCluster(), jobs, Options{Policy: FCFS})
	if err != nil {
		t.Fatal(err)
	}
	byID2 := map[uint64]JobResult{}
	for _, r := range strict.Results {
		byID2[r.Job.ID] = r
	}
	if byID2[2].Start >= byID2[3].Start {
		t.Fatalf("plain FCFS should keep submit order")
	}
}

func TestUtilizationSamples(t *testing.T) {
	jobs := []trace.Job{mkJob(1, 0, 4, 8, 7200)}
	res, err := Simulate(smallCluster(), jobs, Options{UtilSampleEvery: 1800})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Samples) == 0 {
		t.Fatal("no samples")
	}
	for _, s := range res.Samples {
		if s.CPUUtil < 0 || s.CPUUtil > 1 || s.GPUUtil < 0 || s.GPUUtil > 1 {
			t.Fatalf("sample out of range %+v", s)
		}
	}
	// Machine fully busy: a mid-run sample shows 100% CPU utilization.
	found := false
	for _, s := range res.Samples {
		if s.Time > 0 && s.Time < 7200 && s.CPUUtil == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("no full-utilization sample: %+v", res.Samples)
	}
}

func TestBackfillImprovesOrEqualsUtilization(t *testing.T) {
	jobs, err := trace.CampusModel(2024).Generate(rng.New(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	jobs = jobs[:3000]
	cluster := DefaultCampusCluster()
	fcfs, err := Simulate(cluster, jobs, Options{Policy: FCFS})
	if err != nil {
		t.Fatal(err)
	}
	easy, err := Simulate(cluster, jobs, Options{Policy: EASYBackfill})
	if err != nil {
		t.Fatal(err)
	}
	if easy.Metrics.BackfillStarts == 0 {
		t.Fatal("realistic trace produced zero backfills")
	}
	if easy.Metrics.MeanWait > fcfs.Metrics.MeanWait {
		t.Fatalf("backfill worsened mean wait: %.0f vs %.0f",
			easy.Metrics.MeanWait, fcfs.Metrics.MeanWait)
	}
	if easy.Metrics.Makespan > fcfs.Metrics.Makespan {
		t.Fatalf("backfill lengthened makespan: %d vs %d",
			easy.Metrics.Makespan, fcfs.Metrics.Makespan)
	}
}

// Conservation and sanity invariants on a realistic trace, both policies.
func TestInvariantsOnCampusTrace(t *testing.T) {
	jobs, err := trace.CampusModel(2020).Generate(rng.New(9), 0)
	if err != nil {
		t.Fatal(err)
	}
	jobs = jobs[:2500]
	for _, pol := range []Policy{FCFS, EASYBackfill} {
		res, err := Simulate(DefaultCampusCluster(), jobs, Options{Policy: pol, Fairshare: pol == EASYBackfill})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Results) != len(jobs) {
			t.Fatalf("%v: %d results for %d jobs", pol, len(res.Results), len(jobs))
		}
		seen := map[uint64]bool{}
		for _, r := range res.Results {
			if seen[r.Job.ID] {
				t.Fatalf("%v: job %d ran twice", pol, r.Job.ID)
			}
			seen[r.Job.ID] = true
			if r.Wait < 0 {
				t.Fatalf("%v: negative wait for %d", pol, r.Job.ID)
			}
			if r.Start < r.Job.Submit {
				t.Fatalf("%v: job %d started before submission", pol, r.Job.ID)
			}
		}
		if res.Metrics.AvgCPUUtil <= 0 || res.Metrics.AvgCPUUtil > 1 {
			t.Fatalf("%v: cpu util %g", pol, res.Metrics.AvgCPUUtil)
		}
		if res.Metrics.MedianWait > res.Metrics.P95Wait {
			t.Fatalf("%v: median wait above p95", pol)
		}
	}
}

// Property: on random small traces, no oversubscription panic occurs and
// every job runs exactly once with non-negative wait under both policies.
func TestQuickSchedulerInvariants(t *testing.T) {
	cluster := Cluster{CPUNodes: 2, GPUNodes: 1, CoresPerNode: 4, GPUsPerNode: 2}
	f := func(seed uint64, nRaw uint8, policy bool) bool {
		r := rng.New(seed)
		n := int(nRaw%40) + 1
		jobs := make([]trace.Job, n)
		for i := range jobs {
			part := "cpu"
			gpus := 0
			nodes := 1 + r.Intn(2)
			if r.Bool(0.3) {
				part = "gpu"
				nodes = 1
				gpus = 1 + r.Intn(2)
			}
			el := int64(30 + r.Intn(2000))
			jobs[i] = trace.Job{
				ID: uint64(i + 1), User: []string{"a", "b", "c"}[r.Intn(3)],
				Account: "x", Partition: part, Year: 2024,
				Submit: int64(r.Intn(5000)), Nodes: nodes,
				CoresPer: 1 + r.Intn(4), GPUs: gpus,
				Limit: el + int64(r.Intn(500)) + 1, Elapsed: el,
				State: trace.StateCompleted, Language: "c",
			}
		}
		pol := FCFS
		if policy {
			pol = EASYBackfill
		}
		res, err := Simulate(cluster, jobs, Options{Policy: pol, Fairshare: seed%2 == 0})
		if err != nil {
			return false
		}
		if len(res.Results) != n {
			return false
		}
		for _, jr := range res.Results {
			if jr.Wait < 0 || jr.Start < jr.Job.Submit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyString(t *testing.T) {
	if FCFS.String() != "fcfs" || EASYBackfill.String() != "easy-backfill" {
		t.Fatal("policy strings")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy string empty")
	}
}

func TestJobsSorted(t *testing.T) {
	sorted := []trace.Job{mkJob(1, 0, 1, 1, 10), mkJob(2, 0, 1, 1, 10), mkJob(3, 5, 1, 1, 10)}
	if !JobsSorted(nil) || !JobsSorted(sorted[:1]) || !JobsSorted(sorted) {
		t.Fatal("sorted input reported unsorted")
	}
	bySubmit := []trace.Job{mkJob(1, 9, 1, 1, 10), mkJob(2, 3, 1, 1, 10)}
	byID := []trace.Job{mkJob(7, 0, 1, 1, 10), mkJob(2, 0, 1, 1, 10)}
	if JobsSorted(bySubmit) || JobsSorted(byID) {
		t.Fatal("unsorted input reported sorted")
	}
}

// TestSimulateOrderInvariant: feeding the same jobs pre-sorted (the
// fast path, no copy) and shuffled (copy+sort fallback) must produce
// identical schedules, and neither run may mutate the caller's slice.
func TestSimulateOrderInvariant(t *testing.T) {
	r := rng.New(11)
	jobs := make([]trace.Job, 0, 60)
	for i := 0; i < 60; i++ {
		j := mkJob(uint64(i+1), int64(r.Intn(5000)), 1+r.Intn(2), 1+r.Intn(8), int64(60+r.Intn(2000)))
		jobs = append(jobs, j)
	}
	shuffled := make([]trace.Job, len(jobs))
	copy(shuffled, jobs)
	rng.Shuffle(rng.New(12), shuffled)
	shuffledBefore := make([]trace.Job, len(shuffled))
	copy(shuffledBefore, shuffled)

	a, err := Simulate(smallCluster(), shuffled, Options{Policy: EASYBackfill})
	if err != nil {
		t.Fatal(err)
	}
	// Pre-sort into arrival order and run again via the no-copy path.
	presorted := make([]trace.Job, len(jobs))
	copy(presorted, shuffledBefore)
	sortJobsForTest(presorted)
	if !JobsSorted(presorted) {
		t.Fatal("test setup: presorted slice not sorted")
	}
	presortedBefore := make([]trace.Job, len(presorted))
	copy(presortedBefore, presorted)
	b, err := Simulate(smallCluster(), presorted, Options{Policy: EASYBackfill})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Results) != len(b.Results) {
		t.Fatalf("result counts differ: %d vs %d", len(a.Results), len(b.Results))
	}
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			t.Fatalf("result %d differs: %+v vs %+v", i, a.Results[i], b.Results[i])
		}
	}
	if a.Metrics != b.Metrics {
		t.Fatalf("metrics differ: %+v vs %+v", a.Metrics, b.Metrics)
	}
	for i := range shuffled {
		if shuffled[i] != shuffledBefore[i] {
			t.Fatalf("Simulate mutated the shuffled input at %d", i)
		}
	}
	for i := range presorted {
		if presorted[i] != presortedBefore[i] {
			t.Fatalf("Simulate mutated the pre-sorted input at %d", i)
		}
	}
}

func sortJobsForTest(jobs []trace.Job) {
	for i := 1; i < len(jobs); i++ {
		for j := i; j > 0; j-- {
			a, b := jobs[j-1], jobs[j]
			if a.Submit > b.Submit || (a.Submit == b.Submit && a.ID > b.ID) {
				jobs[j-1], jobs[j] = b, a
			} else {
				break
			}
		}
	}
}

// TestShadowIgnoresStartOrder checks that EASY's shadow depends on the
// running set, not on the order its jobs started in. Every job starts at
// one instant with one of three limits, in both partitions, so the
// releases crowd into three tie groups; starting the same set (same
// seqs) in a shuffled order lays the run heap out differently. For
// random heads both sims must return the same shadow, and some heads
// must meet a tie group of several releases at their shadow time.
func TestShadowIgnoresStartOrder(t *testing.T) {
	c := Cluster{CPUNodes: 8, GPUNodes: 4, CoresPerNode: 8, GPUsPerNode: 4}
	job := func(r *rng.RNG, id uint64, maxNodes int) trace.Job {
		j := trace.Job{
			ID: id, User: "u", Account: "x", Partition: "cpu", Year: 2024,
			Nodes: 1 + r.Intn(maxNodes), CoresPer: 1 + r.Intn(c.CoresPerNode),
			Limit: int64(600 * (1 + r.Intn(3))), State: trace.StateCompleted, Language: "c",
		}
		if r.Bool(0.4) {
			j.Partition = "gpu"
			j.Nodes = 1 + r.Intn(min(maxNodes, c.GPUNodes))
			j.GPUs = 1 + r.Intn(c.GPUsPerNode*j.Nodes)
		}
		j.Elapsed = 1 + int64(r.Intn(int(j.Limit)))
		return j
	}
	startAll := func(set []trace.Job, order []int) *sim {
		s := newSim(c, []trace.Job{mkJob(1, 0, 1, 1, 1)}, Options{Policy: EASYBackfill})
		for _, k := range order {
			q := s.newQueued(set[k], k)
			s.queue = append(s.queue, q)
			s.start(q)
		}
		return s
	}
	crowded := 0
	for trial := uint64(0); trial < 200; trial++ {
		r := rng.New(trial*104729 + 11)
		probe := newSim(c, []trace.Job{mkJob(1, 0, 1, 1, 1)}, Options{Policy: EASYBackfill})
		var set []trace.Job
		for k := 0; k < 60; k++ {
			if j := job(r, uint64(k+1), 2); probe.fits(j) {
				probe.alloc(j)
				set = append(set, j)
			}
		}
		order := make([]int, len(set))
		for i := range order {
			order[i] = i
		}
		inOrder := startAll(set, order)
		rng.Shuffle(r, order)
		shuffled := startAll(set, order)
		for h := 0; h < 50; h++ {
			head := job(r, 1000, c.CPUNodes)
			gt, gc, ggc, gg := inOrder.shadow(head)
			wt, wc, wgc, wg := shuffled.shadow(head)
			if gt != wt || gc != wc || ggc != wgc || gg != wg {
				t.Fatalf("trial %d head %+v: shadow (%d, %d, %d, %d) in start order, (%d, %d, %d, %d) shuffled",
					trial, head, gt, gc, ggc, gg, wt, wc, wgc, wg)
			}
			ties := 0
			for _, rel := range inOrder.releases {
				if rel.t == gt {
					ties++
				}
			}
			if ties >= 2 {
				crowded++
			}
		}
	}
	if crowded == 0 {
		t.Fatal("no head met a tie group of two or more releases at its shadow time")
	}
}

// TestRunHeapOrder pushes and pops the run heap at random, with few
// distinct ends so most entries tie on end and seqs pushed out of
// order, and requires every pop to return the least live entry in
// (end, seq) order.
func TestRunHeapOrder(t *testing.T) {
	r := rng.New(13)
	seqs := make([]int, 4000)
	for i := range seqs {
		seqs[i] = i
	}
	rng.Shuffle(r, seqs)
	var h runHeap
	var live []runEntry
	for pushed := 0; pushed < len(seqs) || len(live) > 0; {
		if pushed < len(seqs) && (len(live) == 0 || r.Bool(0.55)) {
			seq := seqs[pushed]
			pushed++
			e := runEntry{end: int64(pushed/64 + r.Intn(4)), rel: int64(seq), seq: seq, id: uint64(seq), n: need{cpu: seq}}
			h.push(e)
			live = append(live, e)
			continue
		}
		least := 0
		for i, e := range live {
			if m := live[least]; e.end < m.end || (e.end == m.end && e.seq < m.seq) {
				least = i
			}
		}
		if got := h.pop(); got != live[least] {
			t.Fatalf("popped %+v, want %+v", got, live[least])
		}
		live = append(live[:least], live[least+1:]...)
	}
	if len(h) != 0 {
		t.Fatalf("%d entries left", len(h))
	}
}
