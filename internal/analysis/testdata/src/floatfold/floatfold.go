// Fixture for the floatfold analyzer: float reductions folded in
// goroutine completion order.
package floatfold

import (
	"sync"

	"repro/internal/parallel"
)

// channelSum receives partials in completion order and folds them into a
// float: a different schedule gives different low bits.
func channelSum(ch chan float64) float64 {
	sum := 0.0
	for v := range ch {
		sum += v // want `float accumulation into shared "sum" while ranging over a channel`
	}
	return sum
}

// mutexSum is the shared-accumulator-under-a-mutex pattern: the mutex
// removes the race but not the completion-order dependence.
func mutexSum(parts [][]float64) float64 {
	var (
		mu  sync.Mutex
		sum float64
		wg  sync.WaitGroup
	)
	for _, part := range parts {
		wg.Add(1)
		go func(vs []float64) {
			defer wg.Done()
			local := 0.0
			for _, v := range vs {
				local += v
			}
			mu.Lock()
			sum += local // want `float accumulation into shared "sum" inside a goroutine`
			mu.Unlock()
		}(part)
	}
	wg.Wait()
	return sum
}

// mapAppend collects float results from parallel.Map workers in
// completion order; any later non-commutative fold inherits that order.
// Map calls fn from inside its workers' go statement, so fn runs
// concurrently even though no go statement names it.
func mapAppend(parts []float64) ([]float64, error) {
	var (
		mu  sync.Mutex
		out []float64
	)
	if _, err := parallel.Map(2, parts, func(_ int, p float64) (struct{}, error) {
		mu.Lock()
		out = append(out, p*p) // want `append of float values to shared "out" inside a concurrently executed closure`
		mu.Unlock()
		return struct{}{}, nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// mapSum folds parallel.Map results into a shared float under a mutex:
// the sum re-associates with completion order.
func mapSum(parts []float64) (float64, error) {
	var (
		mu  sync.Mutex
		sum float64
	)
	_, err := parallel.Map(2, parts, func(_ int, p float64) (struct{}, error) {
		mu.Lock()
		sum += p // want `float accumulation into shared "sum" inside a concurrently executed closure`
		mu.Unlock()
		return struct{}{}, nil
	})
	return sum, err
}

// chunkFold is the deterministic pattern: per-chunk partials land at
// their chunk index and are folded sequentially in index order.
func chunkFold(xs []float64) (float64, error) {
	partials, err := parallel.Map(4, parallel.Chunks(len(xs), 4), func(_ int, c parallel.Chunk) (float64, error) {
		s := 0.0
		for _, v := range xs[c.Lo:c.Hi] {
			s += v
		}
		return s, nil
	})
	if err != nil {
		return 0, err
	}
	return parallel.Fold(partials, 0.0, func(a, p float64) float64 { return a + p }), nil
}

// intChannelCount is exact integer arithmetic: completion order cannot
// change the result, so counting from a channel is fine.
func intChannelCount(ch chan int) int {
	n := 0
	for v := range ch {
		n += v
	}
	return n
}

// stageLocalSum accumulates into a variable declared inside the stage
// closure; nothing shared, nothing flagged.
func stageLocalSum(parts []float64) error {
	g := parallel.NewGraph()
	g.Add("sum", func() error {
		s := 0.0
		for _, v := range parts {
			s += v
		}
		_ = s
		return nil
	})
	return g.Run(0)
}
