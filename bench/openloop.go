package main

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// openLoop sends n requests on a fixed schedule, rate per second from
// start, through workers concurrent senders. Request i is due at
// start + i/rate whether or not earlier ones have finished, and its
// latency is measured from that due time, so a stall shows in every
// request queued behind it. It returns each request's latency and
// outcome and the most the dispatcher ran behind schedule.
func openLoop(ctx context.Context, start time.Time, rate float64, n, workers int,
	do func(ctx context.Context, i, worker int) bool) (lat []time.Duration, ok []bool, late time.Duration, err error) {
	due := func(i int) time.Time {
		return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
	}
	lat, ok = make([]time.Duration, n), make([]bool, n)
	queue := make(chan int, n) // one slot per send: the dispatcher never blocks
	var (
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicErr error
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicMu.Lock()
					panicErr = fmt.Errorf("open-loop worker %d panicked: %v", w, p)
					panicMu.Unlock()
				}
			}()
			for i := range queue {
				ok[i] = do(ctx, i, w)
				lat[i] = time.Since(due(i))
			}
		}(w)
	}
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
dispatch:
	for i := 0; i < n; i++ {
		if wait := time.Until(due(i)); wait > 0 {
			timer.Reset(wait)
			select {
			case <-ctx.Done():
				break dispatch
			case <-timer.C:
			}
		}
		late = max(late, time.Since(due(i)))
		queue <- i
	}
	close(queue)
	wg.Wait()
	if panicErr == nil {
		panicErr = ctx.Err()
	}
	return lat, ok, late, panicErr
}
