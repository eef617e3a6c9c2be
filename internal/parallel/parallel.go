// Package parallel provides the small concurrent runtime the study
// pipeline uses to fan generation and analysis out across cores while
// staying deterministic: chunked parallel map with stable output order,
// a bounded worker pool, fold/reduce over chunk partials, and the stage
// graph executor (graph.go).
//
// Determinism convention: callers split an rng stream per chunk *before*
// submitting work, so results are identical for any worker count —
// verified by the ablation bench and the equivalence tests.
package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers returns a sensible default worker count: GOMAXPROCS, floored
// at 1.
func Workers() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		return 1
	}
	return n
}

// Map applies fn to each element of xs using at most workers goroutines
// and returns results in input order. A panicking fn is converted into an
// error carrying the panic value. The first error cancels outstanding
// work (already-started calls finish).
func Map[T, R any](workers int, xs []T, fn func(int, T) (R, error)) ([]R, error) {
	if workers <= 0 {
		workers = Workers()
	}
	n := len(xs)
	out := make([]R, n)
	if n == 0 {
		return out, nil
	}
	if workers > n {
		workers = n
	}
	var (
		next     atomic.Int64
		firstErr atomic.Value
		wg       sync.WaitGroup
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				// fn panics are recovered per-call in safeCall; this
				// catches anything that escapes the worker loop itself so
				// a worker can never take the process down.
				if p := recover(); p != nil {
					firstErr.CompareAndSwap(nil, fmt.Errorf("parallel: map worker panicked: %v", p))
					cancel()
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				select {
				case <-ctx.Done():
					return
				default:
				}
				r, err := safeCall(i, xs[i], fn)
				if err != nil {
					firstErr.CompareAndSwap(nil, err)
					cancel()
					return
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()
	if e := firstErr.Load(); e != nil {
		return nil, e.(error)
	}
	return out, nil
}

func safeCall[T, R any](i int, x T, fn func(int, T) (R, error)) (r R, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("parallel: task %d panicked: %v", i, p)
		}
	}()
	return fn(i, x)
}

// Chunk describes a half-open index range [Lo, Hi) of a partitioned
// workload, plus its ordinal position.
type Chunk struct {
	Index  int
	Lo, Hi int
}

// Chunks partitions n items into at most parts contiguous chunks of
// near-equal size. It returns no chunk of zero width.
func Chunks(n, parts int) []Chunk {
	if n <= 0 {
		return nil
	}
	if parts <= 0 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	out := make([]Chunk, 0, parts)
	base := n / parts
	rem := n % parts
	lo := 0
	for i := 0; i < parts; i++ {
		size := base
		if i < rem {
			size++
		}
		out = append(out, Chunk{Index: i, Lo: lo, Hi: lo + size})
		lo += size
	}
	return out
}

// MapChunks runs fn over a contiguous partition of n items and returns
// one partial result per chunk in chunk order. It is the deterministic
// fan-out primitive: each chunk's fn receives its Chunk so the caller
// can derive a per-chunk RNG stream keyed by Chunk.Index.
func MapChunks[R any](workers, n int, fn func(Chunk) (R, error)) ([]R, error) {
	chunks := Chunks(n, workers)
	return Map(workers, chunks, func(_ int, c Chunk) (R, error) { return fn(c) })
}

// Fold reduces partial results sequentially in order, so any
// non-commutative merge is still deterministic.
func Fold[R, A any](partials []R, init A, merge func(A, R) A) A {
	acc := init
	for _, p := range partials {
		acc = merge(acc, p)
	}
	return acc
}

// ErrPoolClosed is returned by Pool.Submit after Close.
var ErrPoolClosed = errors.New("parallel: pool closed")

// Pool is a bounded worker pool for heterogeneous background tasks.
// Tasks are arbitrary funcs; errors are collected and returned by Wait.
type Pool struct {
	tasks  chan func() error
	wg     sync.WaitGroup
	mu     sync.Mutex
	errs   []error
	closed bool
}

// NewPool starts workers goroutines servicing a queue of depth queue.
func NewPool(workers, queue int) *Pool {
	if workers <= 0 {
		workers = Workers()
	}
	if queue < 0 {
		queue = 0
	}
	p := &Pool{tasks: make(chan func() error, queue)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer p.wg.Done()
			defer func() {
				// Task panics are recovered per-task in runTask; this
				// keeps a pool worker from ever killing the process.
				if r := recover(); r != nil {
					p.mu.Lock()
					p.errs = append(p.errs, fmt.Errorf("parallel: pool worker panicked: %v", r))
					p.mu.Unlock()
				}
			}()
			for t := range p.tasks {
				if err := runTask(t); err != nil {
					p.mu.Lock()
					p.errs = append(p.errs, err)
					p.mu.Unlock()
				}
			}
		}()
	}
	return p
}

func runTask(t func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("parallel: pool task panicked: %v", r)
		}
	}()
	return t()
}

// Submit enqueues a task, blocking if the queue is full. It returns
// ErrPoolClosed after Close.
func (p *Pool) Submit(t func() error) error {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return ErrPoolClosed
	}
	p.tasks <- t
	return nil
}

// Close stops accepting tasks and waits for in-flight tasks to finish,
// returning the accumulated task errors joined together (nil if none).
func (p *Pool) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return errors.Join(p.errs...)
	}
	p.closed = true
	p.mu.Unlock()
	close(p.tasks)
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	return errors.Join(p.errs...)
}
