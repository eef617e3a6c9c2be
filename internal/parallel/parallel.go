// Package parallel provides the small concurrent runtime the study
// pipeline uses to fan generation and analysis out across cores while
// staying deterministic: chunked parallel map with stable output order,
// fold/reduce over chunk partials, and the stage graph executor
// (graph.go).
//
// Determinism convention: callers split an rng stream per chunk *before*
// submitting work, so results are identical for any worker count —
// verified by the ablation bench and the equivalence tests.
package parallel

import (
	"context"
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

// Fold reduces partial results sequentially in order, so any
// non-commutative merge is still deterministic.
func Fold[R, A any](partials []R, init A, merge func(A, R) A) A {
	acc := init
	for _, p := range partials {
		acc = merge(acc, p)
	}
	return acc
}
