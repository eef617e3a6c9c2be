package sched

import (
	"errors"
	"fmt"

	"repro/internal/table"
	"repro/internal/trace"
)

// jobSource is the simulator's arrival feed: jobs in (Submit, ID)
// order, consumed one at a time. It decouples the event loop from
// storage so a whole-trace []Job and a streamed column table drive the
// identical simulation — the arrival sequence numbers, and therefore
// every tie-break downstream, depend only on arrival order.
type jobSource interface {
	// peek returns the next job's submit time without consuming it.
	peek() (int64, bool)
	// pop consumes and returns the next job. Only valid after a
	// successful peek.
	pop() trace.Job
	// err reports the first feed failure (scan error, invalid job,
	// out-of-order feed). The feed reports drained once err is set.
	err() error
}

// sliceSource feeds from a sorted in-memory slice.
type sliceSource struct {
	jobs []trace.Job
	i    int
}

func (s *sliceSource) peek() (int64, bool) {
	if s.i >= len(s.jobs) {
		return 0, false
	}
	return s.jobs[s.i].Submit, true
}

func (s *sliceSource) pop() trace.Job {
	j := s.jobs[s.i]
	s.i++
	return j
}

func (s *sliceSource) err() error { return nil }

// validateJobForCluster is the per-job admission check shared by the
// batch path (which runs it up front) and the streaming path (which
// runs it as rows arrive).
func validateJobForCluster(cluster Cluster, j trace.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	switch j.Partition {
	case "gpu":
		if j.Cores() > cluster.gpuCoreCap() || j.GPUs > cluster.gpuCapacity() {
			return fmt.Errorf("sched: job %d wants %d cores / %d gpus, gpu partition has %d / %d",
				j.ID, j.Cores(), j.GPUs, cluster.gpuCoreCap(), cluster.gpuCapacity())
		}
	default:
		if j.Cores() > cluster.cpuCapacity() {
			return fmt.Errorf("sched: job %d wants %d cores, cpu partition has %d",
				j.ID, j.Cores(), cluster.cpuCapacity())
		}
		if j.GPUs > 0 {
			return fmt.Errorf("sched: job %d requests gpus on partition %q", j.ID, j.Partition)
		}
	}
	return nil
}

// tableSource feeds from a job table scanner with one-row lookahead,
// validating each job and asserting the feed is in arrival order.
type tableSource struct {
	sc      table.Scanner[trace.Job]
	cluster Cluster
	have    bool
	next    trace.Job
	prev    trace.Job
	started bool
	e       error
}

func (s *tableSource) fill() {
	if s.have || s.e != nil {
		return
	}
	if !s.sc.Scan() {
		s.e = s.sc.Err()
		return
	}
	j := s.sc.Row()
	if err := validateJobForCluster(s.cluster, j); err != nil {
		s.e = err
		return
	}
	if s.started && !arrivesBefore(s.prev, j) {
		s.e = fmt.Errorf("sched: streamed trace out of arrival order: job %d (submit %d) after job %d (submit %d)",
			j.ID, j.Submit, s.prev.ID, s.prev.Submit)
		return
	}
	s.next, s.prev, s.have, s.started = j, j, true, true
}

func (s *tableSource) peek() (int64, bool) {
	s.fill()
	if !s.have {
		return 0, false
	}
	return s.next.Submit, true
}

func (s *tableSource) pop() trace.Job {
	s.have = false
	return s.next
}

func (s *tableSource) err() error { return s.e }

// SimulateTable schedules a streamed job table on the cluster. The
// table must be in arrival order — (Submit, ID) ascending — which is
// how the generator emits traces; an out-of-order feed is an error, not
// a silent re-sort (sorting would require materializing the trace,
// defeating the streaming path). Jobs are validated as they arrive.
// The simulation is identical, event for event, to Simulate over the
// materialized rows (pinned by the feed-equivalence test); the feed
// reads the table one row ahead instead of copying it into a []Job.
func SimulateTable(cluster Cluster, t table.Table[trace.Job], opt Options) (*Result, error) {
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	total := t.Len(table.Exact)
	if total == 0 {
		return nil, errors.New("sched: no jobs")
	}
	applyOptionDefaults(&opt)
	src := &tableSource{sc: t.Scanner(), cluster: cluster}
	s := newSimFromSource(cluster, src, total, 64+total/8, opt)
	if err := s.run(); err != nil {
		return nil, err
	}
	return s.finish()
}
