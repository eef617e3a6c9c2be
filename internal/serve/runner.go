package serve

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/breaker"
	"repro/internal/core"
	"repro/internal/obs"
)

// runner executes pipeline runs exactly once per distinct configuration
// fingerprint: a singleflight layer collapses concurrent identical
// requests onto one execution, and a small LRU keeps recently completed
// Artifacts so every table/figure of the same run renders without
// recomputing. Correctness under concurrency leans on the determinism
// contract — a fingerprint identifies one artifact set, so whichever
// request computes it, every waiter can share the result.
//
// Resilience contract: each flight runs in its own goroutine under its
// own context, so one waiter's deadline cannot kill a run other waiters
// still want — only when the *last* waiter departs is the flight
// cancelled. Run panics are recovered (the pipeline already converts
// stage panics into typed errors; this is the backstop for everything
// else) so a crashing run can never take the daemon down, and a
// per-fingerprint circuit breaker fast-fails configurations that keep
// failing instead of letting them monopolize run slots.
type runner struct {
	run func(ctx context.Context, cfg core.Config) (*core.Artifacts, error)

	breakerThreshold int
	breakerCooldown  time.Duration
	now              func() time.Time // injectable clock (breaker tests)

	mu       sync.Mutex
	flights  map[string]*flight
	ll       *list.List // front = most recently used; values are *runItem
	items    map[string]*list.Element
	breakers map[string]*breaker.Breaker

	runsTotal    *obs.Counter
	runSeconds   *obs.Histogram
	collapsed    *obs.Counter
	runCacheHits *obs.Counter
	evictions    *obs.Counter
	errorsTotal  *obs.Counter

	cancellations      *obs.CounterVec // reason: deadline | disconnect
	breakerTransitions *obs.CounterVec // state: open | half_open | closed
	breakerOpenG       *obs.Gauge
}

// flight is one in-progress pipeline execution that late arrivals wait
// on instead of re-running. It owns its context: waiters are
// refcounted, and the last one to walk away cancels the run.
type flight struct {
	done    chan struct{}
	cancel  context.CancelFunc
	waiters int
	run     *runItem
	err     error
}

// runItem is one retained run: its artifacts, and each experiment's
// render key (core.RenderKeys), derived once as the run completes so no
// request has to.
type runItem struct {
	fingerprint string
	arts        *core.Artifacts
	keys        map[string]string
}

// newRunner builds the runner. runFn executes one pipeline run; the
// server injects core.RunWithOptions wired to the stage-timing
// histogram and resilience counters (tests inject counting stubs).
func newRunner(runFn func(ctx context.Context, cfg core.Config) (*core.Artifacts, error), breakerThreshold int, breakerCooldown time.Duration, reg *obs.Registry) *runner {
	return &runner{
		run:              runFn,
		breakerThreshold: breakerThreshold,
		breakerCooldown:  breakerCooldown,
		now:              time.Now,
		flights:          map[string]*flight{},
		ll:               list.New(),
		items:            map[string]*list.Element{},
		breakers:         map[string]*breaker.Breaker{},
		runsTotal:        reg.Counter("rcpt_pipeline_runs_total", "pipeline executions started"),
		runSeconds:       reg.Histogram("rcpt_pipeline_run_seconds", "end-to-end pipeline run latency", obs.DefBuckets()),
		collapsed:        reg.Counter("rcpt_pipeline_collapsed_total", "requests collapsed onto an in-flight identical run"),
		runCacheHits:     reg.Counter("rcpt_run_cache_hits_total", "completed-run (Artifacts) cache hits"),
		evictions:        reg.Counter("rcpt_run_cache_evictions_total", "completed runs evicted from the Artifacts cache"),
		errorsTotal:      reg.Counter("rcpt_pipeline_errors_total", "pipeline executions that failed"),
		cancellations: reg.CounterVec("rcpt_run_cancellations_total",
			"run requests abandoned before completion, by reason", "reason"),
		breakerTransitions: reg.CounterVec("rcpt_breaker_transitions_total",
			"circuit-breaker state transitions", "state"),
		breakerOpenG: reg.Gauge("rcpt_breaker_open_circuits",
			"configuration fingerprints currently held open by the circuit breaker"),
	}
}

// artifacts returns the completed run for cfg, executing the pipeline
// at most once per fingerprint no matter how many callers arrive
// concurrently. Failed runs are not cached (the next request retries,
// subject to the circuit breaker); cancelled waits leave the flight
// running for the remaining waiters.
func (r *runner) artifacts(ctx context.Context, fingerprint string, cfg core.Config) (*runItem, error) {
	r.mu.Lock()
	if el, ok := r.items[fingerprint]; ok {
		r.ll.MoveToFront(el)
		run := el.Value.(*runItem)
		r.runCacheHits.Inc()
		r.mu.Unlock()
		return run, nil
	}
	if f, ok := r.flights[fingerprint]; ok {
		f.waiters++
		r.collapsed.Inc()
		r.mu.Unlock()
		return r.wait(ctx, fingerprint, cfg, f)
	}
	if err := r.breakerAllow(fingerprint); err != nil {
		r.mu.Unlock()
		return nil, err
	}
	// New flight: its context is the flight's own, not the first
	// caller's — the run outlives any individual waiter until none are
	// left.
	fctx, cancel := context.WithCancel(context.Background())
	f := &flight{done: make(chan struct{}), cancel: cancel, waiters: 1}
	r.flights[fingerprint] = f
	r.runsTotal.Inc()
	r.mu.Unlock()

	go func() {
		defer func() {
			if p := recover(); p != nil {
				// The pipeline recovers its own stage panics; this is the
				// backstop for panics outside the graph (config handling,
				// test stubs) so the daemon never dies for a bad run.
				r.finish(fingerprint, f, nil, fmt.Errorf("serve: run panicked: %v", p))
			}
		}()
		start := time.Now()
		arts, err := r.run(fctx, cfg)
		r.runSeconds.Observe(time.Since(start).Seconds())
		run := &runItem{fingerprint: fingerprint, arts: arts}
		if err == nil {
			run.keys, err = core.RenderKeys(cfg)
		}
		r.finish(fingerprint, f, run, err)
	}()
	return r.wait(ctx, fingerprint, cfg, f)
}

// wait blocks until the flight completes or the caller's context dies.
// A departing waiter decrements the refcount; the last one out cancels
// the flight so an abandoned run tears down promptly.
func (r *runner) wait(ctx context.Context, fingerprint string, cfg core.Config, f *flight) (*runItem, error) {
	select {
	case <-f.done:
		if f.err != nil && ctx.Err() == nil &&
			(errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded)) {
			// The flight died of a cancellation that was not ours: this
			// caller raced joining a flight whose last previous waiter had
			// already walked away and cancelled it. Its abandonment is not
			// our failure — start (or join) a fresh flight.
			return r.artifacts(ctx, fingerprint, cfg)
		}
		return f.run, f.err
	case <-ctx.Done():
		r.mu.Lock()
		f.waiters--
		if f.waiters <= 0 {
			f.cancel()
		}
		r.mu.Unlock()
		reason := "disconnect"
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			reason = "deadline"
		}
		r.cancellations.With(reason).Inc()
		return nil, ctx.Err()
	}
}

// finish publishes a flight's outcome: LRU insert and breaker bookkeeping
// under the lock, then the done broadcast. Ordering matters — by the
// time any waiter wakes, the cache and breaker already reflect the run.
func (r *runner) finish(fingerprint string, f *flight, run *runItem, err error) {
	r.mu.Lock()
	delete(r.flights, fingerprint)
	f.err = err
	if err == nil {
		f.run = run
		r.items[fingerprint] = r.ll.PushFront(run)
		for r.ll.Len() > runCacheEntries {
			tail := r.ll.Back()
			item := tail.Value.(*runItem)
			r.ll.Remove(tail)
			delete(r.items, item.fingerprint)
			r.evictions.Inc()
		}
		r.breakerSuccess(fingerprint)
	} else {
		r.errorsTotal.Inc()
		// A cancelled run says nothing about the configuration's health;
		// only real failures feed the breaker.
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			r.breakerFailure(fingerprint)
		}
	}
	r.mu.Unlock()
	f.cancel()
	close(f.done)
}

// knows reports whether this replica already holds fp's run — retained
// in the Artifacts cache or currently in flight — without starting
// anything. The peer-fill handler uses it to decide whether serving a
// fill would cost a fresh compute (authority's job) or just bytes it
// already has (anyone's job).
func (r *runner) knows(fingerprint string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.items[fingerprint]; ok {
		return true
	}
	_, ok := r.flights[fingerprint]
	return ok
}

// lookup returns a retained run by fingerprint without executing
// anything — the `?run=` parameter path. It reports false when the run
// was never executed here or has been evicted.
func (r *runner) lookup(fingerprint string) (*runItem, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	el, ok := r.items[fingerprint]
	if !ok {
		return nil, false
	}
	r.ll.MoveToFront(el)
	return el.Value.(*runItem), true
}
