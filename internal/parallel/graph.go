package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/rng"
)

// Stage is one node of a Graph: a named unit of work plus the names of
// the stages whose outputs it consumes. Run must be internally
// deterministic (derive any randomness from streams split before the
// graph starts); the executor guarantees only ordering, not scheduling.
// Run must also be idempotent, since the retry policy may re-attempt
// it: re-running the closure from the top must reproduce the same
// output, which the pipeline achieves by deriving its rng streams by
// name *inside* the stage body.
type Stage struct {
	Name string
	Deps []string
	Run  func() error
}

// StageError is the typed failure of one graph stage: which stage
// failed, on which attempt, whether the failure was a recovered panic
// (with the goroutine stack captured at recovery), and the underlying
// cause. Graph.Run returns a *StageError for stage failures, so callers
// can attribute faults with errors.As and decide routing (retry the
// run, open a circuit, surface the stage name to a client) without
// string matching.
type StageError struct {
	Stage    string
	Attempt  int    // 1-based attempt that produced the final failure
	Panicked bool   // the failure was a recovered panic
	Stack    string // goroutine stack captured at recovery (panics only)
	Err      error  // underlying cause
}

func (e *StageError) Error() string {
	if e.Panicked {
		return fmt.Sprintf("parallel: stage %q panicked: %v", e.Stage, e.Err)
	}
	return fmt.Sprintf("parallel: stage %q: %v", e.Stage, e.Err)
}

// Unwrap exposes the cause so errors.Is/As see through the stage frame.
func (e *StageError) Unwrap() error { return e.Err }

// EventKind classifies a resilience event emitted by the graph runtime.
type EventKind string

const (
	// EventPanic: a stage attempt panicked and was recovered.
	EventPanic EventKind = "panic"
	// EventRetry: a failed attempt will be retried after backoff.
	EventRetry EventKind = "retry"
	// EventCancel: the run's context was cancelled; pending stages are
	// skipped. Emitted once per run.
	EventCancel EventKind = "cancel"
)

// Event is one resilience event: a recovered panic, a scheduled retry,
// or a run cancellation. Events are telemetry only — hooks must not
// feed back into stage behaviour.
type Event struct {
	Stage   string
	Kind    EventKind
	Attempt int
	Err     error
}

// RetryPolicy bounds how failed stages are re-attempted.
// Backoff doubles from BaseDelay per attempt, is capped at MaxDelay,
// and carries deterministic "equal jitter" drawn from an rng stream
// split by stage name — so the delay sequence is a pure function of
// (retry seed, stage name, attempt), identical for any worker count.
type RetryPolicy struct {
	MaxAttempts int           // total attempts per stage; <= 1 disables retry
	BaseDelay   time.Duration // backoff before attempt 2; doubles each attempt
	MaxDelay    time.Duration // cap on the backoff (0 = uncapped)
}

func (p RetryPolicy) enabled() bool { return p.MaxAttempts > 1 }

// backoff returns the delay before the given attempt (2-based) with the
// jitter stream for this stage. Deterministic: same stream state and
// attempt always produce the same delay.
func (p RetryPolicy) backoff(attempt int, jitter *rng.RNG) time.Duration {
	d := p.BaseDelay
	if d <= 0 {
		return 0
	}
	for i := 2; i < attempt; i++ {
		d *= 2
		if p.MaxDelay > 0 && d >= p.MaxDelay {
			d = p.MaxDelay
			break
		}
	}
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	// Equal jitter: half fixed, half uniform — keeps retries spread
	// without ever collapsing the delay to zero.
	return d/2 + time.Duration(jitter.Float64()*float64(d/2))
}

// StageMiddleware wraps one stage attempt. The fault-injection harness
// (internal/fault) uses it to deterministically panic, fail, or delay a
// stage at the attempt boundary — before the stage body runs — so a
// retried stage re-executes from an untouched state. Middleware runs
// inside the graph's panic recovery: a middleware panic is isolated
// exactly like a stage panic.
type StageMiddleware func(stage string, attempt int, run func() error) error

// Graph is an explicit stage DAG executed by a bounded worker pool.
// Stages with no unmet dependencies run concurrently; the first error
// (or panic, recovered into a typed *StageError) cancels every stage
// that has not yet started, while in-flight stages finish — Run never
// returns with a stage still executing. Because stages exchange data
// only through their declared dependency edges, the output is identical
// for any worker count — the property the pipeline's rng-split
// determinism convention exists to exploit.
//
// Build with Add, then call Run once. A Graph is not reusable.
type Graph struct {
	stages   []Stage
	index    map[string]int
	addErr   error
	observer func(stage string, seconds float64)
	events   func(Event)
	mw       StageMiddleware
	retry    RetryPolicy
	retryRNG *rng.RNG
}

// NewGraph returns an empty stage graph.
func NewGraph() *Graph {
	return &Graph{index: map[string]int{}}
}

// Add registers a stage, which the retry policy (SetRetry) may
// re-attempt after a failure. Dependencies may be registered before or
// after the stages that declare them; they are resolved at Run.
// Registration errors (duplicate name, nil func) are deferred to Run so
// call sites can stay declarative.
func (g *Graph) Add(name string, run func() error, deps ...string) {
	g.add(Stage{Name: name, Deps: deps, Run: run})
}

func (g *Graph) add(st Stage) {
	if g.addErr != nil {
		return
	}
	if st.Name == "" {
		g.addErr = fmt.Errorf("parallel: graph stage with empty name")
		return
	}
	if st.Run == nil {
		g.addErr = fmt.Errorf("parallel: graph stage %q has nil func", st.Name)
		return
	}
	if _, dup := g.index[st.Name]; dup {
		g.addErr = fmt.Errorf("parallel: duplicate graph stage %q", st.Name)
		return
	}
	g.index[st.Name] = len(g.stages)
	g.stages = append(g.stages, st)
}

// SetObserver installs a per-stage timing hook: after each stage
// finishes (success or failure), obs is called with the stage name and
// its wall-clock duration in seconds. Observation is telemetry only —
// it must not feed back into stage behaviour, or runs stop being pure
// functions of their inputs. The hook may be invoked concurrently from
// multiple workers and must be safe for that. A panicking hook is
// recovered and isolated like a stage panic.
func (g *Graph) SetObserver(obs func(stage string, seconds float64)) { g.observer = obs }

// SetEventHook installs a resilience-event hook (recovered panics,
// retries, cancellation). Same contract as SetObserver: telemetry only,
// concurrency-safe, panics recovered.
func (g *Graph) SetEventHook(fn func(Event)) { g.events = fn }

// SetMiddleware installs a wrapper around every stage attempt; see
// StageMiddleware.
func (g *Graph) SetMiddleware(mw StageMiddleware) { g.mw = mw }

// SetRetry installs the retry policy for every stage, with jitter drawn
// from stream (split by stage name, so delays are deterministic for any
// worker count).
func (g *Graph) SetRetry(p RetryPolicy, stream *rng.RNG) {
	g.retry = p
	g.retryRNG = stream
}

// Run executes the graph with at most workers concurrent stages
// (workers <= 0 means GOMAXPROCS). It returns the first stage error as
// a *StageError, wrapped with the stage name.
func (g *Graph) Run(workers int) error {
	return g.RunContext(context.Background(), workers)
}

// RunContext is Run with external cancellation: once ctx is done, no
// new stage starts (and no retry backoff keeps sleeping) and ctx.Err()
// is returned, unless a stage already failed, in which case that error
// wins. In-flight stages are always awaited before RunContext returns:
// cancellation never strands a running stage goroutine.
func (g *Graph) RunContext(ctx context.Context, workers int) error {
	if g.addErr != nil {
		return g.addErr
	}
	n := len(g.stages)
	if n == 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = Workers()
	}
	if workers > n {
		workers = n
	}

	// Resolve edges and verify acyclicity (Kahn) before starting work.
	remaining := make([]int, n)    // unmet dependency count per stage
	dependents := make([][]int, n) // reverse edges
	for i, st := range g.stages {
		remaining[i] = len(st.Deps)
		for _, d := range st.Deps {
			j, ok := g.index[d]
			if !ok {
				return fmt.Errorf("parallel: stage %q depends on unknown stage %q", st.Name, d)
			}
			if j == i {
				return fmt.Errorf("parallel: stage %q depends on itself", st.Name)
			}
			dependents[j] = append(dependents[j], i)
		}
	}
	if err := checkAcyclic(g.stages, g.index); err != nil {
		return err
	}

	var (
		mu        sync.Mutex
		cond      = sync.NewCond(&mu)
		ready     []int
		done      int
		firstErr  error
		cancelled bool // cancel event emitted (once per run)
		// workerPanic holds a panic that escaped the scheduler loop
		// itself (not a stage — those are recovered in execStage). It is
		// deliberately lock-free: the recovery path cannot know whether
		// the panicking worker held mu, so it must not touch it.
		workerPanic atomic.Value
	)
	for i := range g.stages {
		if remaining[i] == 0 {
			ready = append(ready, i)
		}
	}
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}
	emitCancel := func(err error) {
		if !cancelled {
			cancelled = true
			g.emit(Event{Kind: EventCancel, Err: err})
		}
	}
	// Wake blocked workers when the context dies.
	stopWatch := context.AfterFunc(ctx, func() {
		mu.Lock()
		fail(ctx.Err())
		emitCancel(ctx.Err())
		mu.Unlock()
		cond.Broadcast()
	})
	defer stopWatch()

	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					// Scheduler-internal panic (should be impossible; stage
					// and hook panics are recovered in execStage). Record it
					// without touching mu — its state is unknown here — and
					// wake everyone so the run winds down instead of hanging.
					workerPanic.CompareAndSwap(nil, fmt.Errorf("parallel: graph worker panicked: %v\n%s", p, debug.Stack()))
					cond.Broadcast()
				}
			}()
			for {
				mu.Lock()
				for firstErr == nil && workerPanic.Load() == nil && done < n && len(ready) == 0 {
					cond.Wait()
				}
				// Check the context synchronously so no stage is
				// dispatched after cancellation, regardless of when the
				// AfterFunc wakeup lands.
				if firstErr == nil && ctx.Err() != nil {
					fail(ctx.Err())
					emitCancel(ctx.Err())
				}
				if p := workerPanic.Load(); p != nil {
					fail(p.(error))
				}
				if firstErr != nil || done == n {
					cond.Broadcast()
					mu.Unlock()
					return
				}
				i := ready[0]
				ready = ready[1:]
				st := g.stages[i]
				mu.Unlock()

				err := g.execStage(ctx, st)

				mu.Lock()
				done++
				if err != nil {
					fail(err)
				} else {
					for _, dep := range dependents[i] {
						remaining[dep]--
						if remaining[dep] == 0 {
							ready = append(ready, dep)
						}
					}
				}
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr == nil {
		if p := workerPanic.Load(); p != nil {
			firstErr = p.(error)
		}
	}
	return firstErr
}

// execStage runs one stage to completion: attempts (with middleware and
// full panic recovery), deterministic backoff between retries, and
// observer/event emission. It never panics — hook panics are recovered
// and attributed to the stage — so the caller's lock discipline stays
// intact no matter what user code does.
func (g *Graph) execStage(ctx context.Context, st Stage) error {
	maxAttempts := 1
	if g.retry.enabled() {
		maxAttempts = g.retry.MaxAttempts
	}
	// One jitter stream per stage execution, derived by name: the delay
	// sequence cannot depend on which worker runs the stage or on what
	// other stages are doing. SplitNamed reads but never advances the
	// parent, so concurrent derivations are safe.
	var jitter *rng.RNG
	if maxAttempts > 1 {
		jitter = g.retryRNG.SplitNamed("retry/" + st.Name)
	}
	for attempt := 1; ; attempt++ {
		err := g.runAttempt(st, attempt)
		if err == nil {
			return nil
		}
		if attempt >= maxAttempts || ctx.Err() != nil {
			return err
		}
		g.emit(Event{Stage: st.Name, Kind: EventRetry, Attempt: attempt, Err: err})
		if d := g.retry.backoff(attempt+1, jitter); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return err
			}
		}
	}
}

// runAttempt invokes one attempt of one stage, converting panics
// (stage, middleware, or hook) into typed *StageErrors so a bad stage
// cannot take down the process, and timing the attempt for the
// observer.
func (g *Graph) runAttempt(st Stage, attempt int) (err error) {
	var start time.Time
	if g.observer != nil {
		start = time.Now()
	}
	defer func() {
		if p := recover(); p != nil {
			err = &StageError{
				Stage:    st.Name,
				Attempt:  attempt,
				Panicked: true,
				Stack:    string(debug.Stack()),
				Err:      panicErr(p),
			}
			g.emit(Event{Stage: st.Name, Kind: EventPanic, Attempt: attempt, Err: err})
		}
		if g.observer != nil {
			// The observer itself runs inside this recovery frame via
			// observe; a panicking observer is isolated below.
			g.observe(st.Name, time.Since(start).Seconds())
		}
	}()
	if g.mw != nil {
		err = g.mw(st.Name, attempt, st.Run)
	} else {
		err = st.Run()
	}
	if err != nil {
		return &StageError{Stage: st.Name, Attempt: attempt, Err: err}
	}
	return nil
}

// observe calls the timing hook with panic isolation: telemetry must
// never be able to fail a run, let alone kill the process.
func (g *Graph) observe(stage string, seconds float64) {
	defer func() { _ = recover() }()
	g.observer(stage, seconds)
}

// emit calls the event hook (if any) with panic isolation.
func (g *Graph) emit(ev Event) {
	if g.events == nil {
		return
	}
	defer func() { _ = recover() }()
	g.events(ev)
}

// panicErr normalizes a recovered panic value into an error.
func panicErr(p any) error {
	if err, ok := p.(error); ok {
		return err
	}
	return errors.New(fmt.Sprint(p))
}

// checkAcyclic runs Kahn's algorithm over the stage set and names one
// stage on any cycle found.
func checkAcyclic(stages []Stage, index map[string]int) error {
	n := len(stages)
	indeg := make([]int, n)
	next := make([][]int, n)
	for i, st := range stages {
		indeg[i] = len(st.Deps)
		for _, d := range st.Deps {
			next[index[d]] = append(next[index[d]], i)
		}
	}
	queue := make([]int, 0, n)
	for i, d := range indeg {
		if d == 0 {
			queue = append(queue, i)
		}
	}
	seen := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		seen++
		for _, j := range next[i] {
			indeg[j]--
			if indeg[j] == 0 {
				queue = append(queue, j)
			}
		}
	}
	if seen != n {
		for i, d := range indeg {
			if d > 0 {
				return fmt.Errorf("parallel: stage graph has a cycle through %q", stages[i].Name)
			}
		}
	}
	return nil
}
