package sched

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/rng"
	"repro/internal/trace"
)

// randomTrace generates a valid random workload scaled to the cluster:
// job widths up to roughly half the machine, bursts of equal submit
// times and equal limits to stress tie-breaking, and a GPU mix when the
// cluster has a GPU pool.
func randomTrace(r *rng.RNG, c Cluster, n int) []trace.Job {
	users := []string{"ada", "bob", "cam", "dee", "eve"}
	jobs := make([]trace.Job, 0, n)
	var lastSubmit int64
	for i := 0; i < n; i++ {
		submit := lastSubmit
		if !r.Bool(0.25) { // 25% exact ties with the previous arrival
			submit += int64(r.Intn(4000))
		}
		lastSubmit = submit
		elapsed := int64(1 + r.Intn(3000))
		limit := elapsed
		if !r.Bool(0.3) { // 30% exact-limit (timeout-shaped) jobs
			limit += int64(1 + r.Intn(1200))
		}
		j := trace.Job{
			ID: uint64(i + 1), User: users[r.Intn(len(users))], Account: "x",
			Partition: "cpu", Year: 2024, Submit: submit,
			Nodes: 1 + r.Intn(maxInt(1, c.CPUNodes/2)), CoresPer: 1 + r.Intn(c.CoresPerNode),
			Limit: limit, Elapsed: elapsed, State: trace.StateCompleted, Language: "c",
		}
		if c.GPUNodes > 0 && r.Bool(0.3) {
			j.Partition = "gpu"
			j.Nodes = 1 + r.Intn(maxInt(1, c.GPUNodes/2))
			j.GPUs = 1 + r.Intn(c.GPUsPerNode*j.Nodes)
		}
		jobs = append(jobs, j)
	}
	return jobs
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestDifferentialOracle pins the determinism contract of the
// incremental simulator: across seeded random traces, all three
// policies, fairshare on and off, and both cluster shapes, the
// optimized fast path must produce Results identical to the naive
// reference oracle — same per-job outcomes, same utilization samples,
// same metrics, bit for bit.
func TestDifferentialOracle(t *testing.T) {
	clusters := []struct {
		name string
		c    Cluster
	}{
		{"small", smallCluster()},
		{"campus", DefaultCampusCluster()},
	}
	policies := []Policy{FCFS, EASYBackfill, ConservativeBackfill}
	const tracesPerCluster = 110 // ×2 clusters = 220 seeded traces ≥ the 200 the contract demands
	for _, cl := range clusters {
		cl := cl
		t.Run(cl.name, func(t *testing.T) {
			for seed := uint64(0); seed < tracesPerCluster; seed++ {
				r := rng.New(seed*2654435761 + 17)
				jobs := randomTrace(r, cl.c, 20+r.Intn(80))
				for _, pol := range policies {
					opt := Options{Policy: pol, Fairshare: seed%2 == 0, UtilSampleEvery: 900}
					got, err := Simulate(cl.c, jobs, opt)
					if err != nil {
						t.Fatalf("seed %d %v: optimized: %v", seed, pol, err)
					}
					want, err := simulateOracle(cl.c, jobs, opt)
					if err != nil {
						t.Fatalf("seed %d %v: oracle: %v", seed, pol, err)
					}
					if err := diffResults(got, want); err != nil {
						t.Fatalf("seed %d %v fairshare=%v: optimized diverges from oracle: %v",
							seed, pol, opt.Fairshare, err)
					}
				}
			}
		})
	}
}

// burstTrace generates a workload whose queue outgrows the bfDepth
// window: jobs arrive in bursts of up to ~150 at nearly one instant,
// run long against the arrival gaps, and draw limits from a few
// multiples of ten minutes, so jobs started together release together
// and EASY's shadow meets tie groups of every shape.
func burstTrace(r *rng.RNG, c Cluster, n int) []trace.Job {
	users := []string{"ada", "bob", "cam", "dee", "eve"}
	jobs := make([]trace.Job, 0, n)
	var t int64
	for len(jobs) < n {
		t += int64(600 + r.Intn(6000))
		burst := 10 + r.Intn(140)
		for k := 0; k < burst && len(jobs) < n; k++ {
			limit := int64(600 * (1 + r.Intn(4)))
			elapsed := limit
			if r.Bool(0.6) {
				elapsed = int64(1 + r.Intn(int(limit)))
			}
			j := trace.Job{
				ID: uint64(len(jobs) + 1), User: users[r.Intn(len(users))], Account: "x",
				Partition: "cpu", Year: 2024, Submit: t + int64(r.Intn(3)),
				Nodes: 1 + r.Intn(c.CPUNodes), CoresPer: 1 + r.Intn(c.CoresPerNode),
				Limit: limit, Elapsed: elapsed, State: trace.StateCompleted, Language: "c",
			}
			if r.Bool(0.3) {
				// Narrow and short: fits beside wide ones.
				j.Nodes, j.CoresPer = 1, 1
				j.Limit, j.Elapsed = 600, int64(1+r.Intn(600))
			}
			if c.GPUNodes > 0 && r.Bool(0.3) {
				j.Partition = "gpu"
				j.Nodes = 1 + r.Intn(c.GPUNodes)
				j.GPUs = 1 + r.Intn(c.GPUsPerNode*j.Nodes)
			}
			jobs = append(jobs, j)
		}
	}
	return jobs
}

// TestDifferentialOracleDeepQueues runs the differential check on
// traces whose queues exceed bfDepth, which the random traces above
// never build: there the conservative early exit and its window slide
// after a start, and EASY's release-list shadow with the whole tie
// group at its shadow time, meet a full reservation window. All three
// policies, fairshare on and off, on the small cluster.
func TestDifferentialOracleDeepQueues(t *testing.T) {
	c := smallCluster()
	deep := 0
	for seed := uint64(0); seed < 8; seed++ {
		r := rng.New(seed*7919 + 3)
		jobs := burstTrace(r, c, 250+r.Intn(250))
		for _, pol := range []Policy{FCFS, EASYBackfill, ConservativeBackfill} {
			for _, fs := range []bool{false, true} {
				opt := Options{Policy: pol, Fairshare: fs, UtilSampleEvery: 300}
				got, err := Simulate(c, jobs, opt)
				if err != nil {
					t.Fatalf("seed %d %v fairshare=%v: optimized: %v", seed, pol, fs, err)
				}
				want, err := simulateOracle(c, jobs, opt)
				if err != nil {
					t.Fatalf("seed %d %v fairshare=%v: oracle: %v", seed, pol, fs, err)
				}
				if err := diffResults(got, want); err != nil {
					t.Fatalf("seed %d %v fairshare=%v: optimized diverges from oracle: %v", seed, pol, fs, err)
				}
				for _, smp := range got.Samples {
					if smp.Queued > bfDepth {
						deep++
						break
					}
				}
			}
		}
	}
	if deep == 0 {
		t.Fatalf("no run queued more than bfDepth=%d jobs", bfDepth)
	}
}

// fuzzJobs decodes fuzzer bytes into at most 64 jobs for smallCluster,
// five bytes a job: the submit gap (zero for a quarter of the values,
// so arrivals tie), the width (up to a whole partition), the runtime,
// the limit (for a quarter of the values exactly the runtime), and one
// byte for the partition, user and GPU count.
func fuzzJobs(data []byte) []trace.Job {
	c := smallCluster()
	users := []string{"ada", "bob", "cam", "dee"}
	var jobs []trace.Job
	var submit int64
	for k := 0; k+5 <= len(data) && len(jobs) < 64; k += 5 {
		b := data[k : k+5]
		if b[0]&3 != 0 {
			submit += 60 * int64(b[0]>>2)
		}
		j := trace.Job{
			ID: uint64(len(jobs) + 1), User: users[b[4]>>1&3], Account: "x",
			Partition: "cpu", Year: 2024, Submit: submit,
			Nodes: 1 + int(b[1]>>4)%c.CPUNodes, CoresPer: 1 + int(b[1]&15)%c.CoresPerNode,
			Elapsed: 30 * int64(b[2]), State: trace.StateCompleted, Language: "c",
		}
		j.Limit = max(j.Elapsed, 30)
		if b[3]&3 != 0 {
			j.Limit += 60 * int64(b[3]>>2)
		}
		if b[4]&1 == 1 {
			j.Partition = "gpu"
			j.Nodes = 1 + int(b[1]>>4)%c.GPUNodes
			j.GPUs = int(b[4]>>3) % (c.GPUsPerNode*j.Nodes + 1)
		}
		jobs = append(jobs, j)
	}
	return jobs
}

// FuzzDifferentialOracle runs the differential check on traces the
// fuzzer writes (see fuzzJobs), under all three policies with
// fairshare on and off: the optimized simulator must match the oracle
// bit for bit on every trace.
func FuzzDifferentialOracle(f *testing.F) {
	r := rng.New(29)
	for _, n := range []int{8, 24, 64} {
		b := make([]byte, 5*n)
		for i := range b {
			b[i] = byte(r.Uint64())
		}
		f.Add(b)
	}
	// A tie storm: 48 jobs arrive at once, each with an exact limit of
	// ten or twenty minutes, in both partitions.
	var storm []byte
	for k := 0; k < 48; k++ {
		storm = append(storm, 0, byte(37*k), byte(20*(1+k%2)), 0, byte(k))
	}
	f.Add(storm)
	c := smallCluster()
	f.Fuzz(func(t *testing.T, data []byte) {
		jobs := fuzzJobs(data)
		if len(jobs) == 0 {
			return
		}
		for _, pol := range []Policy{FCFS, EASYBackfill, ConservativeBackfill} {
			for _, fs := range []bool{false, true} {
				opt := Options{Policy: pol, Fairshare: fs, UtilSampleEvery: 300}
				got, err := Simulate(c, jobs, opt)
				if err != nil {
					t.Fatalf("%v fairshare=%v: optimized: %v", pol, fs, err)
				}
				want, err := simulateOracle(c, jobs, opt)
				if err != nil {
					t.Fatalf("%v fairshare=%v: oracle: %v", pol, fs, err)
				}
				if err := diffResults(got, want); err != nil {
					t.Fatalf("%v fairshare=%v: optimized diverges from oracle: %v", pol, fs, err)
				}
			}
		}
	})
}

// diffResults reports the first divergence between two simulation
// outputs, or nil if they are identical.
func diffResults(got, want *Result) error {
	if len(got.Results) != len(want.Results) {
		return fmt.Errorf("result counts %d vs %d", len(got.Results), len(want.Results))
	}
	for i := range got.Results {
		if got.Results[i] != want.Results[i] {
			return fmt.Errorf("result %d: %+v vs %+v", i, got.Results[i], want.Results[i])
		}
	}
	if len(got.Samples) != len(want.Samples) {
		return fmt.Errorf("sample counts %d vs %d", len(got.Samples), len(want.Samples))
	}
	for i := range got.Samples {
		if got.Samples[i] != want.Samples[i] {
			return fmt.Errorf("sample %d: %+v vs %+v", i, got.Samples[i], want.Samples[i])
		}
	}
	if got.Metrics != want.Metrics {
		return fmt.Errorf("metrics %+v vs %+v", got.Metrics, want.Metrics)
	}
	return nil
}

// TestOversizedJobErrNeverFits drives an oversized job through the
// conservative reservation path directly (bypassing Simulate's up-front
// validation, as a caller constructing sims by hand could) and asserts
// the typed ErrNeverFits error surfaces instead of the historical
// silent steady-state fallback.
func TestOversizedJobErrNeverFits(t *testing.T) {
	blocker := mkJob(1, 0, 4, 8, 1000) // fills the 32-core machine
	tooWide := mkJob(2, 10, 8, 8, 100) // 64 cores on a 32-core machine
	s := newSim(smallCluster(), []trace.Job{blocker, tooWide},
		Options{Policy: ConservativeBackfill, UtilSampleEvery: 3600})
	err := s.run()
	if err == nil {
		t.Fatal("oversized job reached a reservation without error")
	}
	if !errors.Is(err, ErrNeverFits) {
		t.Fatalf("error %v is not ErrNeverFits", err)
	}
}
