package sched

// Reference oracle: the naive scheduler implementation that rebuilds
// the availability profile from scratch on every started job, re-sorts
// the queue on every pass, and allocates fresh profile/order slices
// per call. It is kept verbatim (modulo the interned-usage storage the
// whole package shares, EASY's shadow counting the whole tie group at
// the shadow time, and reading each running job's release time and
// need from its run-heap entry, which no longer holds the job) as the
// semantic ground truth for the optimized incremental simulator in
// sched.go/conservative.go: the differential property test in
// oracle_test.go asserts both produce identical Results across seeded
// random traces, policies, and cluster shapes.
//
// Do not "optimize" this file — its entire value is being the slow,
// obviously-correct implementation.

import (
	"sort"

	"repro/internal/trace"
)

// simulateOracle runs the naive reference implementation with the same
// validation as Simulate. Test-only entry point.
func simulateOracle(cluster Cluster, jobs []trace.Job, opt Options) (*Result, error) {
	return simulate(cluster, jobs, opt, true)
}

// scheduleNaive is the pre-incremental schedule(): fresh order copy per
// iteration, shadow recomputed with a fresh sort per backfill attempt.
func (s *sim) scheduleNaive() {
	if s.opt.Policy == ConservativeBackfill {
		s.scheduleConservativeNaive()
		return
	}
	for {
		startedOne := false
		order := s.orderNaive()
		if len(order) == 0 {
			return
		}
		head := order[0]
		if s.fits(head.job) {
			s.start(head)
			startedOne = true
		} else if s.opt.Policy == EASYBackfill && len(order) > 1 {
			// Shadow time: when will the head fit, assuming running jobs
			// hold resources until their *requested* limits (as EASY does)?
			shadow, spareCPU, spareGPUCore, spareGPU := s.shadowNaive(head.job)
			for _, cand := range order[1:] {
				if !s.fits(cand.job) {
					continue
				}
				// A backfilled job must either end by the shadow time or
				// not touch the resources the head is waiting for.
				endsByShadow := s.now+cand.job.Limit <= shadow
				var withinSpare bool
				if cand.job.Partition == "gpu" {
					withinSpare = cand.job.Cores() <= spareGPUCore && cand.job.GPUs <= spareGPU
				} else {
					withinSpare = cand.job.Cores() <= spareCPU
				}
				if endsByShadow || withinSpare {
					s.start(cand)
					s.backfills++
					startedOne = true
					break // re-evaluate shadow with updated state
				}
			}
		}
		if !startedOne {
			return
		}
	}
}

// orderNaive returns a freshly allocated copy of the queue in
// scheduling priority order, re-sorting (with per-comparison usage
// lookups) on every call.
func (s *sim) orderNaive() []*queued {
	q := make([]*queued, len(s.queue))
	copy(q, s.queue)
	if s.opt.Fairshare {
		sort.SliceStable(q, func(a, b int) bool {
			ua, ub := s.usage[q[a].user], s.usage[q[b].user]
			if ua != ub {
				return ua < ub
			}
			return q[a].seq < q[b].seq
		})
	}
	return q
}

// shadowNaive computes the head job's reservation with a fresh
// allocation and sort of the running set per call. Once the head fits,
// the rest of the releases at the shadow time still count, so the
// sort's order among equal times never matters.
func (s *sim) shadowNaive(head trace.Job) (shadowTime int64, spareCPU, spareGPUCore, spareGPU int) {
	// Sort running jobs by limit-based end time.
	type rel struct {
		t                int64
		cores, gpuc, gpu int
	}
	var rels []rel
	for _, e := range s.running {
		// Conservative end: start + limit.
		rels = append(rels, rel{t: e.rel, cores: e.n.cpu, gpuc: e.n.gpuCore, gpu: e.n.gpu})
	}
	sort.Slice(rels, func(a, b int) bool { return rels[a].t < rels[b].t })
	cpu, gpuc, gpu := s.cpuFree, s.gpuCore, s.gpuFree
	headFits := func() bool {
		if head.Partition == "gpu" {
			return head.Cores() <= gpuc && head.GPUs <= gpu
		}
		return head.Cores() <= cpu
	}
	shadowTime = s.now
	for _, r := range rels {
		if headFits() && r.t != shadowTime {
			break
		}
		cpu += r.cores
		gpuc += r.gpuc
		gpu += r.gpu
		shadowTime = r.t
	}
	// Spare capacity at shadow time, after the head takes its share.
	if head.Partition == "gpu" {
		spareCPU = cpu
		spareGPUCore = gpuc - head.Cores()
		spareGPU = gpu - head.GPUs
	} else {
		spareCPU = cpu - head.Cores()
		spareGPUCore = gpuc
		spareGPU = gpu
	}
	if spareCPU < 0 {
		spareCPU = 0
	}
	if spareGPUCore < 0 {
		spareGPUCore = 0
	}
	if spareGPU < 0 {
		spareGPU = 0
	}
	return shadowTime, spareCPU, spareGPUCore, spareGPU
}

// naiveProfile is the original array-of-structs step function the
// optimized struct-of-arrays profile replaced.
type naiveProfile struct {
	times []int64
	free  []need
}

// newProfileNaive builds the availability profile from scratch: fresh
// slices, fresh sort of the running set.
func (s *sim) newProfileNaive() *naiveProfile {
	type release struct {
		t int64
		n need
	}
	var rels []release
	for _, e := range s.running {
		rels = append(rels, release{t: e.rel, n: e.n})
	}
	sort.Slice(rels, func(a, b int) bool { return rels[a].t < rels[b].t })
	p := &naiveProfile{
		times: []int64{s.now},
		free:  []need{{cpu: s.cpuFree, gpuCore: s.gpuCore, gpu: s.gpuFree}},
	}
	for _, r := range rels {
		last := p.free[len(p.free)-1]
		next := need{cpu: last.cpu + r.n.cpu, gpuCore: last.gpuCore + r.n.gpuCore, gpu: last.gpu + r.n.gpu}
		if r.t <= p.times[len(p.times)-1] {
			// Release at (or before) the current step start: merge.
			p.free[len(p.free)-1] = next
			continue
		}
		p.times = append(p.times, r.t)
		p.free = append(p.free, next)
	}
	return p
}

// earliestFitNaive is the quadratic nested rescan: for each candidate
// step, re-checks the whole window, with the historical silent
// steady-state fallback.
func (p *naiveProfile) earliestFitNaive(n need, duration int64) int64 {
	for i := range p.times {
		start := p.times[i]
		if !n.fitsIn(p.free[i]) {
			continue
		}
		// Check the window [start, start+duration) stays feasible.
		end := start + duration
		ok := true
		for j := i + 1; j < len(p.times) && p.times[j] < end; j++ {
			if !n.fitsIn(p.free[j]) {
				ok = false
				break
			}
		}
		if ok {
			return start
		}
	}
	// After the last event everything running has released; the final
	// step is the steady state and must fit any pre-validated job.
	return p.times[len(p.times)-1]
}

// reserveNaive subtracts n over [start, start+duration) with two
// independent boundary insertions and a full-profile scan.
func (p *naiveProfile) reserveNaive(n need, start, duration int64) {
	end := start + duration
	p.ensureBoundaryNaive(start)
	p.ensureBoundaryNaive(end)
	for i := range p.times {
		if p.times[i] >= start && p.times[i] < end {
			p.free[i].cpu -= n.cpu
			p.free[i].gpuCore -= n.gpuCore
			p.free[i].gpu -= n.gpu
		}
	}
}

// ensureBoundaryNaive splits the step containing t so t is a step start.
func (p *naiveProfile) ensureBoundaryNaive(t int64) {
	if t <= p.times[0] {
		return
	}
	idx := sort.Search(len(p.times), func(i int) bool { return p.times[i] >= t })
	if idx < len(p.times) && p.times[idx] == t {
		return
	}
	// Insert at idx, copying the preceding step's availability.
	p.times = append(p.times, 0)
	p.free = append(p.free, need{})
	copy(p.times[idx+1:], p.times[idx:])
	copy(p.free[idx+1:], p.free[idx:])
	p.times[idx] = t
	p.free[idx] = p.free[idx-1]
}

// scheduleConservativeNaive runs one conservative-backfill pass the
// pre-incremental way: fresh order copy and full profile rebuild after
// every started job.
func (s *sim) scheduleConservativeNaive() {
	for {
		order := s.orderNaive()
		if len(order) == 0 {
			return
		}
		p := s.newProfileNaive()
		startedOne := false
		depth := len(order)
		if depth > bfDepth {
			depth = bfDepth
		}
		for qi := 0; qi < depth; qi++ {
			q := order[qi]
			n := needOf(q.job)
			start := p.earliestFitNaive(n, q.job.Limit)
			if start == s.now && s.fits(q.job) {
				s.start(q)
				if qi > 0 {
					s.backfills++
				}
				startedOne = true
				break // state changed; rebuild the profile
			}
			p.reserveNaive(n, start, q.job.Limit)
		}
		if !startedOne {
			return
		}
	}
}
