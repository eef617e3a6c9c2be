// Package sched implements a discrete-event cluster scheduler simulator:
// FCFS with optional EASY backfill and decayed-usage fairshare priority,
// over a two-pool (CPU/GPU) cluster. It turns a job trace into start
// times, waits, and a utilization timeline — the telemetry behind
// figures R-F4/F5 and the backfill ablation. Resources are modeled as
// fluid core/GPU pools per partition (no per-node packing), the standard
// simplification for queueing studies; conservation invariants are
// enforced at every event and covered by property tests.
package sched

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/trace"
)

// Cluster describes the simulated machine.
type Cluster struct {
	CPUNodes     int // nodes in the "cpu" partition
	GPUNodes     int // nodes in the "gpu" partition
	CoresPerNode int
	GPUsPerNode  int // per GPU node
}

// Validate checks the configuration.
func (c Cluster) Validate() error {
	if c.CPUNodes < 0 || c.GPUNodes < 0 || c.CPUNodes+c.GPUNodes == 0 {
		return fmt.Errorf("sched: cluster needs nodes, got cpu=%d gpu=%d", c.CPUNodes, c.GPUNodes)
	}
	if c.CoresPerNode <= 0 {
		return fmt.Errorf("sched: cores/node %d", c.CoresPerNode)
	}
	if c.GPUNodes > 0 && c.GPUsPerNode <= 0 {
		return fmt.Errorf("sched: gpu nodes without gpus/node")
	}
	return nil
}

// cpuCores and gpu pool capacities.
func (c Cluster) cpuCapacity() int { return c.CPUNodes * c.CoresPerNode }
func (c Cluster) gpuCapacity() int { return c.GPUNodes * c.GPUsPerNode }
func (c Cluster) gpuCoreCap() int  { return c.GPUNodes * c.CoresPerNode }

// DefaultCampusCluster mirrors the synthetic campus machine the trace
// generator targets: 256 CPU nodes × 32 cores, 48 GPU nodes × 4 GPUs.
func DefaultCampusCluster() Cluster {
	return Cluster{CPUNodes: 256, GPUNodes: 48, CoresPerNode: 32, GPUsPerNode: 4}
}

// Policy selects the scheduling discipline.
type Policy int

const (
	// FCFS is strict first-come-first-served: the queue head blocks
	// everything behind it.
	FCFS Policy = iota
	// EASYBackfill reserves a start for the queue head and lets later
	// jobs jump ahead only if they cannot delay that reservation.
	EASYBackfill
	// ConservativeBackfill gives every queued job (up to a depth cap) a
	// reservation; backfills may not delay any reservation, not just the
	// head's.
	ConservativeBackfill
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case FCFS:
		return "fcfs"
	case EASYBackfill:
		return "easy-backfill"
	case ConservativeBackfill:
		return "conservative-backfill"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Options configures a simulation run.
type Options struct {
	Policy Policy
	// Fairshare, when true, orders the queue by decayed per-user usage
	// (lighter users first) instead of pure submit order. The queue-head
	// guarantee of EASY backfill then applies to the priority order.
	Fairshare bool
	// UtilSampleEvery controls the spacing of utilization samples in
	// seconds (default 3600).
	UtilSampleEvery int64
}

// JobResult is the per-job outcome.
type JobResult struct {
	Job   trace.Job
	Start int64
	Wait  int64 // Start - Submit
}

// End returns the completion time.
func (r JobResult) End() int64 { return r.Start + r.Job.Elapsed }

// UtilSample is one point of the utilization timeline.
type UtilSample struct {
	Time    int64
	CPUUtil float64 // fraction of CPU-partition cores busy
	GPUUtil float64 // fraction of GPUs busy
	Queued  int     // jobs waiting
}

// Metrics aggregates a run.
type Metrics struct {
	Policy         Policy
	Jobs           int
	Makespan       int64
	MeanWait       float64
	MedianWait     float64
	P95Wait        float64
	MaxWait        int64
	AvgCPUUtil     float64 // time-averaged over the makespan
	AvgGPUUtil     float64
	BackfillStarts int // jobs started out of queue order
	// BoundedSlowdown is the geometric mean of max(1, (wait+run)/max(run,
	// 10s)), the standard responsiveness metric.
	BoundedSlowdown float64
	// CPUMeanWait and GPUMeanWait split mean wait by partition.
	CPUMeanWait float64
	GPUMeanWait float64
	// UserFairness is Jain's fairness index over per-user mean bounded
	// slowdown: 1 means every user experiences identical responsiveness,
	// 1/n means one user absorbs all the delay.
	UserFairness float64
}

// Result is the full simulation output.
type Result struct {
	Results []JobResult
	Samples []UtilSample
	Metrics Metrics
}

// ErrNeverFits reports a job whose request exceeds even the empty-
// cluster steady state, so no reservation can ever be honored. Simulate
// rejects such jobs up front; this error surfaces only when the
// pre-validation is bypassed (e.g. a profile constructed directly) and
// replaces the historical silent fallback that assumed feasibility.
var ErrNeverFits = errors.New("sched: job exceeds steady-state capacity")

// Simulate schedules jobs (any order; sorted internally by submit time)
// on the cluster. Jobs whose requests exceed the machine are rejected up
// front with an error naming the job. The simulation is deterministic.
func Simulate(cluster Cluster, jobs []trace.Job, opt Options) (*Result, error) {
	return simulate(cluster, jobs, opt, false)
}

func simulate(cluster Cluster, jobs []trace.Job, opt Options, naive bool) (*Result, error) {
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	if len(jobs) == 0 {
		return nil, errors.New("sched: no jobs")
	}
	applyOptionDefaults(&opt)
	for _, j := range jobs {
		if err := validateJobForCluster(cluster, j); err != nil {
			return nil, err
		}
	}
	pending, err := arrivalOrder(jobs)
	if err != nil {
		return nil, err
	}
	s := newSim(cluster, pending, opt)
	s.naive = naive
	if err := s.run(); err != nil {
		return nil, err
	}
	return s.finish()
}

// sim holds the event-driven simulation state.
type sim struct {
	cluster Cluster
	opt     Options

	src      jobSource // arrival feed, in (Submit, ID) order
	total    int       // jobs the feed will deliver
	arrivals int       // jobs consumed so far; assigns arrival seq numbers

	queue   []*queued
	running runHeap

	cpuFree int // free cores, cpu partition
	gpuCore int // free cores, gpu partition
	gpuFree int // free gpus

	now     int64
	results []JobResult

	// Fairshare usage is interned: users get dense indexes at first
	// arrival, so the per-event decay multiplies a flat float slice
	// instead of rewriting a string-keyed map.
	userIdx   map[string]int
	usage     []float64 // decayed core-seconds per user index
	lastDecay int64

	samples    []UtilSample
	nextSample int64
	backfills  int

	cpuBusyInt float64 // ∫ busy cores dt, for time-averaged utilization
	gpuBusyInt float64
	lastT      int64

	// naive routes scheduling through the reference oracle (oracle.go).
	naive bool

	// Incremental availability machinery (DESIGN.md "Scheduler
	// performance"). releases mirrors the running set as limit-based
	// release events sorted by (t, seq), updated on every job start and
	// completion. base is the availability profile for the current
	// event, rebuilt from releases at most once per simulation event
	// (baseOK) and then maintained incrementally as jobs start; work is
	// the per-pass reservation scratch copied from base. prio caches
	// the fairshare priority order between mutations (prioDirty).
	releases  []release
	base      profile
	work      profile
	baseOK    bool
	prio      []*queued
	prioDirty bool
}

type queued struct {
	job  trace.Job
	n    need    // the job's demand, computed once at arrival
	seq  int     // arrival sequence, the FCFS tiebreak
	user int     // interned usage index for job.User
	key  float64 // usage snapshot backing the cached priority order
}

// newQueued builds the queue entry for job j with arrival sequence
// number seq, so every scan reads the demand instead of the job.
func (s *sim) newQueued(j trace.Job, seq int) *queued {
	return &queued{job: j, n: needOf(j), seq: seq, user: s.internUser(j.User)}
}

// release is one future limit-based resource release, the unit of the
// incrementally maintained availability profile.
type release struct {
	t   int64 // release time: start + Limit
	seq int   // owning job's arrival seq (removal key, tiebreak)
	n   need
}

// runEntry is one running job: what completion and its release need
// to know, and no pointers, so the run heap is a flat array the garbage
// collector never scans.
type runEntry struct {
	end int64 // completion time: start + Elapsed
	rel int64 // release time: start + Limit
	seq int   // arrival seq, the tiebreak among equal ends
	id  uint64
	n   need
}

// before is the run heap's order, (end, seq). seq is unique, so the
// order is strict and the pop order does not depend on the heap layout.
func (e *runEntry) before(f *runEntry) bool {
	return e.end < f.end || (e.end == f.end && e.seq < f.seq)
}

// runHeap is a binary min-heap of running jobs in before order.
type runHeap []runEntry

func (h *runHeap) push(e runEntry) {
	*h = append(*h, e)
	a := *h
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(&a[p]) {
			break
		}
		a[i] = a[p]
		i = p
	}
	a[i] = e
}

func (h *runHeap) pop() runEntry {
	a := *h
	top, last := a[0], a[len(a)-1]
	a = a[:len(a)-1]
	*h = a
	i := 0
	for {
		c := 2*i + 1
		if c >= len(a) {
			break
		}
		if c+1 < len(a) && a[c+1].before(&a[c]) {
			c++
		}
		if !a[c].before(&last) {
			break
		}
		a[i] = a[c]
		i = c
	}
	if len(a) > 0 {
		a[i] = last
	}
	return top
}

// arrivesBefore is the strict arrival order both entry points enforce:
// ascending submit time, ties broken by ascending ID. Two jobs sharing
// a (Submit, ID) pair are in neither order.
func arrivesBefore(a, b trace.Job) bool {
	return a.Submit < b.Submit || (a.Submit == b.Submit && a.ID < b.ID)
}

// JobsSorted reports whether jobs are already in simulation arrival
// order, each strictly after the one before it.
func JobsSorted(jobs []trace.Job) bool {
	return unsortedAt(jobs) < 0
}

// unsortedAt returns the index of the first job not strictly after its
// predecessor in arrival order, or -1.
func unsortedAt(jobs []trace.Job) int {
	for i := 1; i < len(jobs); i++ {
		if !arrivesBefore(jobs[i-1], jobs[i]) {
			return i
		}
	}
	return -1
}

// arrivalOrder returns jobs in arrival order. The generator emits each
// year's trace already sorted, so the common case aliases the caller's
// slice (the sim never mutates pending entries); otherwise it sorts a
// copy. A repeated (Submit, ID) pair is refused on either path: nothing
// would order the two jobs, so their arrival seqs, and every tie-break
// that reads them, would follow whatever order the sort left.
func arrivalOrder(jobs []trace.Job) ([]trace.Job, error) {
	if JobsSorted(jobs) {
		return jobs, nil
	}
	sorted := slices.Clone(jobs)
	sort.Slice(sorted, func(a, b int) bool { return arrivesBefore(sorted[a], sorted[b]) })
	if i := unsortedAt(sorted); i >= 0 {
		return nil, fmt.Errorf("sched: job %d submitted twice at %d", sorted[i].ID, sorted[i].Submit)
	}
	return sorted, nil
}

// newSim builds the simulation state over jobs already in arrival order.
func newSim(cluster Cluster, pending []trace.Job, opt Options) *sim {
	// Preallocate the event-queue structures to their known or easily
	// bounded sizes: every job produces exactly one result, the run heap
	// holds at most the running set, and the sample count is bounded by
	// the submit span (completions can extend past it, so keep slack).
	sampleCap := 64
	if n := len(pending); n > 0 && opt.UtilSampleEvery > 0 {
		span := pending[n-1].Submit - pending[0].Submit
		sampleCap += int(span / opt.UtilSampleEvery)
	}
	return newSimFromSource(cluster, &sliceSource{jobs: pending}, len(pending), sampleCap, opt)
}

// applyOptionDefaults fills the option defaults shared by the batch and
// streaming entry points.
func applyOptionDefaults(opt *Options) {
	if opt.UtilSampleEvery <= 0 {
		opt.UtilSampleEvery = 3600
	}
}

// newSimFromSource builds the simulation state over any arrival feed.
// total is the exact job count; sampleCap is only a capacity hint.
func newSimFromSource(cluster Cluster, src jobSource, total, sampleCap int, opt Options) *sim {
	return &sim{
		cluster:  cluster,
		opt:      opt,
		src:      src,
		total:    total,
		queue:    make([]*queued, 0, 64),
		running:  make(runHeap, 0, 256),
		results:  make([]JobResult, 0, total),
		samples:  make([]UtilSample, 0, sampleCap),
		cpuFree:  cluster.cpuCapacity(),
		gpuCore:  cluster.gpuCoreCap(),
		gpuFree:  cluster.gpuCapacity(),
		userIdx:  map[string]int{},
		releases: make([]release, 0, 256),
	}
}

// internUser returns the dense usage index for a user, allocating one
// on first sight.
func (s *sim) internUser(user string) int {
	if i, ok := s.userIdx[user]; ok {
		return i
	}
	i := len(s.usage)
	s.userIdx[user] = i
	s.usage = append(s.usage, 0)
	return i
}

// insertRelease adds a release keeping s.releases sorted by (t, seq).
func (s *sim) insertRelease(r release) {
	i := sort.Search(len(s.releases), func(i int) bool {
		e := s.releases[i]
		return e.t > r.t || (e.t == r.t && e.seq > r.seq)
	})
	s.releases = append(s.releases, release{})
	copy(s.releases[i+1:], s.releases[i:])
	s.releases[i] = r
}

// removeRelease drops the release of a completed job by its (t, seq)
// key. The entry must exist: the release list mirrors the run heap.
func (s *sim) removeRelease(t int64, seq int) {
	i := sort.Search(len(s.releases), func(i int) bool {
		e := s.releases[i]
		return e.t > t || (e.t == t && e.seq >= seq)
	})
	if i >= len(s.releases) || s.releases[i].t != t || s.releases[i].seq != seq {
		panic(fmt.Sprintf("sched: release bookkeeping lost entry t=%d seq=%d", t, seq))
	}
	s.releases = append(s.releases[:i], s.releases[i+1:]...)
}

// free returns the resources free now.
func (s *sim) free() need {
	return need{cpu: s.cpuFree, gpuCore: s.gpuCore, gpu: s.gpuFree}
}

func (s *sim) fits(j trace.Job) bool {
	if j.Partition == "gpu" {
		return j.Cores() <= s.gpuCore && j.GPUs <= s.gpuFree
	}
	return j.Cores() <= s.cpuFree
}

func (s *sim) alloc(j trace.Job) {
	if j.Partition == "gpu" {
		s.gpuCore -= j.Cores()
		s.gpuFree -= j.GPUs
	} else {
		s.cpuFree -= j.Cores()
	}
	if s.cpuFree < 0 || s.gpuCore < 0 || s.gpuFree < 0 {
		panic(fmt.Sprintf("sched: oversubscription allocating job %d", j.ID))
	}
}

// release returns job id's need n to the free pools.
func (s *sim) release(id uint64, n need) {
	s.cpuFree += n.cpu
	s.gpuCore += n.gpuCore
	s.gpuFree += n.gpu
	if s.cpuFree > s.cluster.cpuCapacity() || s.gpuCore > s.cluster.gpuCoreCap() || s.gpuFree > s.cluster.gpuCapacity() {
		panic(fmt.Sprintf("sched: double release of job %d", id))
	}
}

// advance moves simulated time forward, integrating busy resources and
// emitting utilization samples.
func (s *sim) advance(to int64) {
	if to < s.now {
		panic("sched: time went backwards")
	}
	dt := float64(to - s.lastT)
	busyCPU := float64(s.cluster.cpuCapacity() - s.cpuFree)
	busyGPU := float64(s.cluster.gpuCapacity() - s.gpuFree)
	s.cpuBusyInt += busyCPU * dt
	s.gpuBusyInt += busyGPU * dt
	s.lastT = to
	for s.nextSample <= to {
		cpuU, gpuU := 0.0, 0.0
		if cap := s.cluster.cpuCapacity(); cap > 0 {
			cpuU = busyCPU / float64(cap)
		}
		if cap := s.cluster.gpuCapacity(); cap > 0 {
			gpuU = busyGPU / float64(cap)
		}
		s.samples = append(s.samples, UtilSample{
			Time: s.nextSample, CPUUtil: cpuU, GPUUtil: gpuU, Queued: len(s.queue),
		})
		s.nextSample += s.opt.UtilSampleEvery
	}
	s.now = to
}

// fairshareHalfLife is the usage decay half-life in seconds (7 days).
const fairshareHalfLife = 7 * 86400

// decayUsage applies exponential decay to fairshare usage.
func (s *sim) decayUsage(to int64) {
	if !s.opt.Fairshare || to <= s.lastDecay {
		return
	}
	f := math.Exp2(-float64(to-s.lastDecay) / fairshareHalfLife)
	for i := range s.usage {
		s.usage[i] *= f
	}
	s.lastDecay = to
	// Uniform positive scaling preserves strict order, but rounding can
	// contract two distinct usage values into a tie (changing which
	// tiebreak applies), so the cached priority order is conservatively
	// invalidated to stay byte-identical with the per-call re-sort.
	s.prioDirty = true
}

// order returns the queue in scheduling priority order. Without
// fairshare the queue itself (already in seq order) is returned —
// callers re-fetch after any start, which is the only mutation. With
// fairshare the priority order is cached and lazily re-sorted only
// after arrivals, starts, or decay (prioDirty), with the usage sort
// key snapshotted per entry so the comparator does no map lookups.
func (s *sim) order() []*queued {
	if !s.opt.Fairshare {
		return s.queue
	}
	if s.prioDirty {
		s.prio = append(s.prio[:0], s.queue...)
		for _, q := range s.prio {
			q.key = s.usage[q.user]
		}
		// (key, seq) is a strict order, so the unstable sort yields the
		// one permutation a stable sort would. Usage is never NaN, so
		// the comparator can skip cmp.Compare's NaN checks.
		slices.SortFunc(s.prio, func(a, b *queued) int {
			switch {
			case a.key < b.key:
				return -1
			case a.key > b.key:
				return 1
			}
			return a.seq - b.seq
		})
		s.prioDirty = false
	}
	return s.prio
}

func (s *sim) start(q *queued) {
	s.alloc(q.job)
	rel := s.now + q.job.Limit
	s.running.push(runEntry{end: s.now + q.job.Elapsed, rel: rel, seq: q.seq, id: q.job.ID, n: q.n})
	s.insertRelease(release{t: rel, seq: q.seq, n: q.n})
	s.results = append(s.results, JobResult{Job: q.job, Start: s.now, Wait: s.now - q.job.Submit})
	s.usage[q.user] += float64(q.job.Cores()) * float64(q.job.Elapsed)
	s.prioDirty = true
	// Remove from queue.
	for i, e := range s.queue {
		if e == q {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			return
		}
	}
	panic("sched: started a job not in the queue")
}

// schedule starts every job the policy allows at the current instant.
func (s *sim) schedule() error {
	if s.naive {
		s.scheduleNaive()
		return nil
	}
	if s.opt.Policy == ConservativeBackfill {
		return s.scheduleConservative()
	}
	for {
		startedOne := false
		order := s.order()
		if len(order) == 0 {
			return nil
		}
		head := order[0]
		free := s.free()
		if head.n.fitsIn(free) {
			s.start(head)
			startedOne = true
		} else if s.opt.Policy == EASYBackfill && len(order) > 1 {
			// Shadow time: when will the head fit, assuming running jobs
			// hold resources until their *requested* limits (as EASY does)?
			// Computed only once a candidate fits now; nothing else reads it.
			var shadow int64
			var spare need
			haveShadow := false
			for _, cand := range order[1:] {
				if !cand.n.fitsIn(free) {
					continue
				}
				if !haveShadow {
					shadow, spare.cpu, spare.gpuCore, spare.gpu = s.shadow(head.job)
					haveShadow = true
				}
				// A backfilled job must either end by the shadow time or
				// not touch the resources the head is waiting for (the
				// spare is never negative, so the lanes the job leaves
				// untouched always fit).
				if s.now+cand.job.Limit <= shadow || cand.n.fitsIn(spare) {
					s.start(cand)
					s.backfills++
					startedOne = true
					break // re-evaluate shadow with updated state
				}
			}
		}
		if !startedOne {
			return nil
		}
	}
}

// shadow computes the head job's reservation: the earliest time enough
// resources free up (by requested limits), plus the spare capacity at
// that time beyond what the head needs. s.releases is the running set's
// release events sorted by (t, seq), so the walk adds whole release
// times until the head fits, with no copy and no sort. Every release at
// the shadow time counts toward spare capacity, as textbook EASY
// defines its extra nodes, so the answer does not depend on the order
// of the releases that tie there. A head that never fits (reachable
// only past validation) gets the last release time.
func (s *sim) shadow(head trace.Job) (shadowTime int64, spareCPU, spareGPUCore, spareGPU int) {
	h := needOf(head)
	avail := s.free()
	shadowTime = s.now
	for i := 0; i < len(s.releases) && !h.fitsIn(avail); {
		shadowTime = s.releases[i].t
		for ; i < len(s.releases) && s.releases[i].t == shadowTime; i++ {
			avail = avail.plus(s.releases[i].n)
		}
	}
	return shadowTime, max(avail.cpu-h.cpu, 0), max(avail.gpuCore-h.gpuCore, 0), max(avail.gpu-h.gpu, 0)
}

func (s *sim) run() error {
	guard := 0
	maxEvents := s.total*4 + 16
	for {
		_, more := s.src.peek()
		if !more && len(s.queue) == 0 && len(s.running) == 0 {
			break
		}
		guard++
		if guard > maxEvents*4 {
			return fmt.Errorf("sched: event budget exceeded (%d events) — scheduler wedged", guard)
		}
		// Next event: arrival or completion.
		var next int64 = math.MaxInt64
		if t, ok := s.src.peek(); ok {
			next = t
		}
		if len(s.running) > 0 && s.running[0].end < next {
			next = s.running[0].end
		}
		if next == math.MaxInt64 {
			if err := s.src.err(); err != nil {
				// The feed died with jobs still queued; report the feed
				// failure, not a phantom deadlock.
				return err
			}
			// Queue non-empty but nothing running and no arrivals: the
			// queue head cannot ever start — run() pre-validation should
			// have caught this.
			return fmt.Errorf("sched: deadlock with %d queued jobs", len(s.queue))
		}
		s.advance(next)
		s.decayUsage(next)
		// A new simulation event: time moved and/or the running set is
		// about to change, so the availability profile must be rebuilt
		// (at most once) before the next conservative pass uses it.
		s.baseOK = false
		// Process completions at this instant.
		for len(s.running) > 0 && s.running[0].end == next {
			e := s.running.pop()
			s.release(e.id, e.n)
			s.removeRelease(e.rel, e.seq)
		}
		// Process arrivals at this instant.
		for {
			t, ok := s.src.peek()
			if !ok || t != next {
				break
			}
			s.queue = append(s.queue, s.newQueued(s.src.pop(), s.arrivals))
			s.arrivals++
			s.prioDirty = true
		}
		if err := s.schedule(); err != nil {
			return err
		}
	}
	// A feed failure (scan error, invalid or out-of-order job) presents
	// as a drained source; surface it rather than returning a partial
	// simulation.
	if err := s.src.err(); err != nil {
		return err
	}
	return nil
}

func (s *sim) finish() (*Result, error) {
	m := Metrics{Policy: s.opt.Policy, Jobs: len(s.results), BackfillStarts: s.backfills}
	waits := make([]float64, len(s.results))
	var end int64
	for i, r := range s.results {
		waits[i] = float64(r.Wait)
		if r.Wait < 0 {
			return nil, fmt.Errorf("sched: job %d has negative wait %d", r.Job.ID, r.Wait)
		}
		if e := r.End(); e > end {
			end = e
		}
		if r.Wait > m.MaxWait {
			m.MaxWait = r.Wait
		}
	}
	m.Makespan = end
	sort.Float64s(waits)
	sum := 0.0
	for _, w := range waits {
		sum += w
	}
	m.MeanWait = sum / float64(len(waits))
	m.MedianWait = quantileSorted(waits, 0.5)
	m.P95Wait = quantileSorted(waits, 0.95)
	m.BoundedSlowdown = meanBoundedSlowdown(s.results)
	m.UserFairness = jainFairness(s.results, len(s.userIdx))
	var cpuSum, gpuSum float64
	var cpuN, gpuN int
	for _, r := range s.results {
		if r.Job.Partition == "gpu" {
			gpuSum += float64(r.Wait)
			gpuN++
		} else {
			cpuSum += float64(r.Wait)
			cpuN++
		}
	}
	if cpuN > 0 {
		m.CPUMeanWait = cpuSum / float64(cpuN)
	}
	if gpuN > 0 {
		m.GPUMeanWait = gpuSum / float64(gpuN)
	}
	if end > 0 {
		if cap := s.cluster.cpuCapacity(); cap > 0 {
			m.AvgCPUUtil = s.cpuBusyInt / (float64(cap) * float64(end))
		}
		if cap := s.cluster.gpuCapacity(); cap > 0 {
			m.AvgGPUUtil = s.gpuBusyInt / (float64(cap) * float64(end))
		}
	}
	return &Result{Results: s.results, Samples: s.samples, Metrics: m}, nil
}

func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n == 1 {
		return sorted[0]
	}
	h := q * float64(n-1)
	lo := int(h)
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
