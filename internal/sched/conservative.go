package sched

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/trace"
)

// Conservative backfill gives every queued job (up to bfDepth) a
// reservation against a limit-based resource-availability profile; a
// job starts now only if its reservation is now. Unlike EASY, no job's
// reservation can be delayed by a later backfill, at the cost of more
// bookkeeping and fewer backfill opportunities.
//
// The hot path is incremental (DESIGN.md "Scheduler performance"): the
// base profile is rebuilt from the sorted release list at most once per
// simulation event and updated in place as jobs start; each reservation
// pass works on a scratch copy, so nothing here allocates in steady
// state. The pre-incremental implementation survives as the reference
// oracle in oracle.go.

// bfDepth caps how many queued jobs receive reservations per scheduling
// pass, mirroring Slurm's bf_max_job_test; jobs beyond the cap simply
// wait for the next pass.
const bfDepth = 128

// need is a resource demand or availability vector.
type need struct {
	cpu     int // cpu-partition cores
	gpuCore int // gpu-partition cores
	gpu     int // gpus
}

func needOf(j trace.Job) need {
	if j.Partition == "gpu" {
		return need{gpuCore: j.Cores(), gpu: j.GPUs}
	}
	return need{cpu: j.Cores()}
}

func (n need) fitsIn(avail need) bool {
	return n.cpu <= avail.cpu && n.gpuCore <= avail.gpuCore && n.gpu <= avail.gpu
}

func (n need) plus(m need) need {
	return need{cpu: n.cpu + m.cpu, gpuCore: n.gpuCore + m.gpuCore, gpu: n.gpu + m.gpu}
}

// profile tracks free resources over future time as a step function.
// The three resource lanes are stored as parallel arrays (struct of
// arrays) sharing the times axis: feasibility scans for a cpu-partition
// job read only the cpu lane, and gpu-partition scans only the two gpu
// lanes. That specialization is sound because availability is never
// negative (conservation invariants on live resources; reservations
// only land in windows verified feasible), so a zero demand trivially
// fits every step of the lanes it does not touch.
type profile struct {
	times   []int64 // strictly increasing; times[0] == now
	cpu     []int32 // free cpu-partition cores in [times[i], times[i+1])
	gpuCore []int32 // free gpu-partition cores
	gpu     []int32 // free gpus
}

// copyFrom makes p an independent copy of src, reusing p's backing
// arrays.
func (p *profile) copyFrom(src *profile) {
	p.times = append(p.times[:0], src.times...)
	p.cpu = append(p.cpu[:0], src.cpu...)
	p.gpuCore = append(p.gpuCore[:0], src.gpuCore...)
	p.gpu = append(p.gpu[:0], src.gpu...)
}

// rebuildBase reconstructs the availability profile for the current
// instant from free resources and the incrementally maintained release
// list. Unlike the oracle's newProfileNaive this does not sort (the
// release list is kept ordered on job start/finish) and writes into
// the base profile's backing arrays, sized once for the most steps the
// releases can make, so a rebuild is one linear merge.
func (s *sim) rebuildBase() {
	p := &s.base
	n := len(s.releases) + 1
	p.times = slices.Grow(p.times[:0], n)[:n]
	p.cpu = slices.Grow(p.cpu[:0], n)[:n]
	p.gpuCore = slices.Grow(p.gpuCore[:0], n)[:n]
	p.gpu = slices.Grow(p.gpu[:0], n)[:n]
	p.times[0], p.cpu[0], p.gpuCore[0], p.gpu[0] = s.now, int32(s.cpuFree), int32(s.gpuCore), int32(s.gpuFree)
	k := 0
	for i := range s.releases {
		r := &s.releases[i]
		if r.t > p.times[k] {
			// New step, carrying the previous availability forward.
			k++
			p.times[k], p.cpu[k], p.gpuCore[k], p.gpu[k] = r.t, p.cpu[k-1], p.gpuCore[k-1], p.gpu[k-1]
		}
		// Release at (or before) the current step start: merge.
		p.cpu[k] += int32(r.n.cpu)
		p.gpuCore[k] += int32(r.n.gpuCore)
		p.gpu[k] += int32(r.n.gpu)
	}
	k++
	p.times, p.cpu, p.gpuCore, p.gpu = p.times[:k], p.cpu[:k], p.gpuCore[:k], p.gpu[:k]
	s.baseOK = true
}

// earliestFit finds the earliest window of duration seconds, starting
// at a step start at or after now, in which n is available throughout:
// it starts at step si and ends in step sj, so times[sj] < times[si] +
// duration <= times[sj+1] (or sj is the final step). A single cursor
// tracks the first step after the most recent infeasible one, so the
// scan is linear in profile steps instead of the oracle's nested
// rescan, and only the lanes the job's partition uses are read. ok is
// false when even the final (steady-state) step cannot hold n — the
// caller must surface ErrNeverFits rather than fabricate a reservation.
func (p *profile) earliestFit(n need, duration int64) (si, sj int, ok bool) {
	if n.gpuCore == 0 && n.gpu == 0 {
		return p.earliestFitLane(p.cpu, nil, int32(n.cpu), 0, duration)
	}
	return p.earliestFitLane(p.gpuCore, p.gpu, int32(n.gpuCore), int32(n.gpu), duration)
}

// earliestFitLane runs the cursor scan over one lane (b nil) or two.
func (p *profile) earliestFitLane(a, b []int32, na, nb int32, duration int64) (si, sj int, ok bool) {
	i := 0 // candidate start step: first feasible step after the last infeasible one
	last := len(p.times) - 1
	for j := 0; j <= last; j++ {
		if na > a[j] || (b != nil && nb > b[j]) {
			i = j + 1
			continue
		}
		// Feasible through the final step, which extends forever, or
		// steps i..j cover [times[i], times[i]+duration) entirely.
		if j == last || p.times[j+1] >= p.times[i]+duration {
			return i, j, true
		}
	}
	return 0, 0, false
}

// reserve subtracts n over the window earliestFit reported, steps
// si..sj, and makes its end a step boundary: step sj+1 must start at
// end, so step sj is split there unless a step already starts at end.
// That is the only step a reservation can add, and the subtraction
// touches only the lanes the job actually uses, instead of the
// oracle's two boundary insertions plus full-profile scan.
func (p *profile) reserve(n need, si, sj int, end int64) {
	if k := sj + 1; k == len(p.times) || p.times[k] != end {
		p.times = slices.Insert(p.times, k, end)
		p.cpu = slices.Insert(p.cpu, k, p.cpu[sj])
		p.gpuCore = slices.Insert(p.gpuCore, k, p.gpuCore[sj])
		p.gpu = slices.Insert(p.gpu, k, p.gpu[sj])
	}
	if n.gpuCore == 0 && n.gpu == 0 {
		lane := p.cpu[si : sj+1]
		for i := range lane {
			lane[i] -= int32(n.cpu)
		}
		return
	}
	gc, g := p.gpuCore[si:sj+1], p.gpu[si:sj+1]
	for i := range gc {
		gc[i] -= int32(n.gpuCore)
		g[i] -= int32(n.gpu)
	}
}

// scheduleConservative runs conservative-backfill passes; only a start
// under fairshare ends a pass early and asks for another.
func (s *sim) scheduleConservative() error {
	for {
		restart, err := s.conservativePass()
		if err != nil || !restart {
			return err
		}
	}
}

// conservativePass walks the queue in priority order, gives each job
// in the bfDepth window a reservation, and starts those whose
// reservation is now. It works on a scratch copy of the base profile;
// a start updates the base in place (a start is exactly a reservation
// over the job's limit window) rather than rebuilding it.
//
// The pass stops after the last window job that fits the free
// resources now, or exceeds the whole machine (its reservation fails
// with ErrNeverFits): later reservations only constrain later jobs,
// none of which can start now, and the work profile is scratch. With
// no such job the pass is skipped. Without fairshare a start keeps
// going on the work profile with the started job reserved at now, and
// the window slides by one: a restarted pass would give every job
// ahead of the started one the same reservation — each fit beside the
// started job already — and none of them can start. With fairshare a
// start reorders the queue, so restart reports that the caller must
// run a fresh pass.
func (s *sim) conservativePass() (restart bool, err error) {
	order := s.order()
	last := s.lastCandidate(order, 0)
	if last < 0 {
		return false, nil
	}
	if !s.baseOK {
		s.rebuildBase()
	}
	p := &s.work
	p.copyFrom(&s.base)
	for qi := 0; qi <= last; {
		q := order[qi]
		si, sj, ok := p.earliestFit(q.n, q.job.Limit)
		if !ok {
			return false, fmt.Errorf("sched: job %d (%d cores / %d gpus on %q) cannot be reserved: %w",
				q.job.ID, q.job.Cores(), q.job.GPUs, q.job.Partition, ErrNeverFits)
		}
		end := p.times[si] + q.job.Limit
		if si != 0 || !q.n.fitsIn(s.free()) {
			p.reserve(q.n, si, sj, end)
			qi++
			continue
		}
		// Step 0 starts now: the job starts. The base has steps of its
		// own, and its window ends in the last one that starts before end.
		s.start(q)
		bj, _ := slices.BinarySearch(s.base.times, end)
		s.base.reserve(q.n, 0, bj-1, end)
		if qi > 0 {
			s.backfills++
		}
		if s.opt.Fairshare {
			return true, nil
		}
		p.reserve(q.n, 0, sj, end)
		order = s.order()
		last = s.lastCandidate(order, qi)
	}
	return false, nil
}

// lastCandidate returns the index of the last job in the reservation
// window, at or after from, that fits the free resources now or
// exceeds the whole machine; -1 if there is none.
func (s *sim) lastCandidate(order []*queued, from int) int {
	machine := need{cpu: s.cluster.cpuCapacity(), gpuCore: s.cluster.gpuCoreCap(), gpu: s.cluster.gpuCapacity()}
	free := s.free()
	for i := min(len(order), bfDepth) - 1; i >= from; i-- {
		if n := order[i].n; n.fitsIn(free) || !n.fitsIn(machine) {
			return i
		}
	}
	return -1
}

// jainFairness computes Jain's index over per-user mean bounded
// slowdown: (Σx)² / (n Σx²), in (0, 1]. userHint sizes the per-user
// accumulator map up front (the simulator knows its user count), so
// the render path does not regrow it.
func jainFairness(results []JobResult, userHint int) float64 {
	const tau = 10.0
	if userHint < 8 {
		userHint = 8
	}
	perUser := make(map[string][2]float64, userHint) // sum slowdown, count
	for _, r := range results {
		run := float64(r.Job.Elapsed)
		s := (float64(r.Wait) + run) / math.Max(run, tau)
		if s < 1 {
			s = 1
		}
		agg := perUser[r.Job.User]
		agg[0] += s
		agg[1]++
		perUser[r.Job.User] = agg
	}
	if len(perUser) == 0 {
		return 0
	}
	// Accumulate in sorted user order: float addition is not
	// associative, so summing in (randomized) map order would make the
	// index differ in its last bits from run to run — breaking the
	// byte-identical artifact contract the pipeline promises.
	users := make([]string, 0, len(perUser))
	for u := range perUser {
		users = append(users, u)
	}
	sort.Strings(users)
	var sum, sumsq float64
	for _, u := range users {
		agg := perUser[u]
		mean := agg[0] / agg[1]
		sum += mean
		sumsq += mean * mean
	}
	n := float64(len(perUser))
	if sumsq == 0 {
		return 1
	}
	return sum * sum / (n * sumsq)
}

// meanBoundedSlowdown computes the geometric mean of
// max(1, (wait+run)/max(run, tau)) with tau=10s, the standard
// scheduling-paper responsiveness metric.
func meanBoundedSlowdown(results []JobResult) float64 {
	const tau = 10.0
	if len(results) == 0 {
		return 0
	}
	sumLog := 0.0
	for _, r := range results {
		run := float64(r.Job.Elapsed)
		s := (float64(r.Wait) + run) / math.Max(run, tau)
		if s < 1 {
			s = 1
		}
		sumLog += math.Log(s)
	}
	return math.Exp(sumLog / float64(len(results)))
}
