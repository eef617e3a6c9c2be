package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/rng"
)

func TestStageErrorCarriesAttribution(t *testing.T) {
	boom := errors.New("boom")
	g := NewGraph()
	g.Add("bad", func() error { return boom })
	err := g.Run(2)
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("err=%T %v, want *StageError", err, err)
	}
	if se.Stage != "bad" || se.Attempt != 1 || se.Panicked {
		t.Fatalf("StageError=%+v", se)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("cause not unwrapped: %v", err)
	}
}

func TestStageErrorFromPanicHasStack(t *testing.T) {
	g := NewGraph()
	g.Add("p", func() error { panic("kaboom") })
	err := g.Run(2)
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("err=%T %v, want *StageError", err, err)
	}
	if !se.Panicked || se.Stage != "p" {
		t.Fatalf("StageError=%+v", se)
	}
	if se.Stack == "" || !strings.Contains(se.Stack, "goroutine") {
		t.Fatalf("missing stack: %q", se.Stack)
	}
	if !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("err=%v", err)
	}
}

func TestRetryableStageRetriesUntilSuccess(t *testing.T) {
	var attempts atomic.Int64
	g := NewGraph()
	g.Add("flaky", func() error {
		if attempts.Add(1) < 3 {
			return errors.New("transient")
		}
		return nil
	})
	g.SetRetry(RetryPolicy{MaxAttempts: 5, BaseDelay: time.Microsecond}, rng.New(1))
	if err := g.Run(2); err != nil {
		t.Fatal(err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("attempts=%d, want 3", got)
	}
}

func TestRetryExhaustionReportsLastAttempt(t *testing.T) {
	boom := errors.New("still broken")
	var attempts atomic.Int64
	g := NewGraph()
	g.Add("flaky", func() error { attempts.Add(1); return boom })
	g.SetRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Microsecond}, rng.New(1))
	err := g.Run(1)
	var se *StageError
	if !errors.As(err, &se) {
		t.Fatalf("err=%T %v", err, err)
	}
	if se.Attempt != 3 || attempts.Load() != 3 {
		t.Fatalf("attempt=%d attempts=%d, want 3/3", se.Attempt, attempts.Load())
	}
	if !errors.Is(err, boom) {
		t.Fatalf("cause lost: %v", err)
	}
}

// TestNonRetryableStageFailsOnce: a policy of one attempt disables
// retry, so a failing stage runs exactly once.
func TestNonRetryableStageFailsOnce(t *testing.T) {
	var attempts atomic.Int64
	g := NewGraph()
	g.Add("brittle", func() error { attempts.Add(1); return errors.New("no") })
	g.SetRetry(RetryPolicy{MaxAttempts: 1, BaseDelay: time.Microsecond}, rng.New(1))
	if err := g.Run(1); err == nil {
		t.Fatal("expected error")
	}
	if attempts.Load() != 1 {
		t.Fatalf("stage attempted %d times with retry disabled", attempts.Load())
	}
}

func TestRetryBackoffJitterIsDeterministic(t *testing.T) {
	// The backoff sequence for a stage must be a pure function of the
	// retry seed and stage name — independent of workers or wall clock.
	delays := func() []time.Duration {
		p := RetryPolicy{MaxAttempts: 5, BaseDelay: 10 * time.Millisecond, MaxDelay: 40 * time.Millisecond}
		jr := rng.New(42).SplitNamed("retry").SplitNamed("retry/stage-x")
		var out []time.Duration
		for attempt := 2; attempt <= 5; attempt++ {
			out = append(out, p.backoff(attempt, jr))
		}
		return out
	}
	a, b := delays(), delays()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("attempt %d: %v != %v", i+2, a[i], b[i])
		}
		lo := []time.Duration{5, 10, 20, 20}[i] * time.Millisecond
		hi := 2 * lo
		if a[i] < lo || a[i] > hi {
			t.Fatalf("attempt %d delay %v outside [%v,%v]", i+2, a[i], lo, hi)
		}
	}
}

func TestGraphEventsEmitted(t *testing.T) {
	var mu sync.Mutex
	var events []Event
	g := NewGraph()
	var tries atomic.Int64
	g.Add("flaky", func() error {
		if tries.Add(1) == 1 {
			panic("first try explodes")
		}
		return nil
	})
	g.SetRetry(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond}, rng.New(1))
	g.SetEventHook(func(ev Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
	})
	if err := g.Run(2); err != nil {
		t.Fatal(err)
	}
	var kinds []EventKind
	for _, ev := range events {
		kinds = append(kinds, ev.Kind)
		if ev.Stage != "flaky" {
			t.Fatalf("event for wrong stage: %+v", ev)
		}
	}
	want := []EventKind{EventPanic, EventRetry}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("kinds=%v, want %v", kinds, want)
	}
}

func TestGraphCancelEventEmittedOnce(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var cancels atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	g := NewGraph()
	g.Add("slow", func() error { close(started); <-release; return nil })
	g.Add("s2", func() error { return nil }, "slow")
	g.Add("s3", func() error { return nil }, "slow")
	g.SetEventHook(func(ev Event) {
		if ev.Kind == EventCancel {
			cancels.Add(1)
		}
	})
	done := make(chan error, 1)
	go func() { done <- g.RunContext(ctx, 3) }()
	<-started
	cancel()
	close(release)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v", err)
	}
	if n := cancels.Load(); n != 1 {
		t.Fatalf("cancel events=%d, want 1", n)
	}
}

func TestGraphMiddlewareWrapsEveryAttempt(t *testing.T) {
	var mu sync.Mutex
	var calls []string
	var tries atomic.Int64
	g := NewGraph()
	g.Add("ok", func() error { return nil })
	g.Add("flaky", func() error {
		if tries.Add(1) == 1 {
			return errors.New("transient")
		}
		return nil
	}, "ok")
	g.SetRetry(RetryPolicy{MaxAttempts: 2, BaseDelay: time.Microsecond}, rng.New(1))
	g.SetMiddleware(func(stage string, attempt int, run func() error) error {
		mu.Lock()
		calls = append(calls, fmt.Sprintf("%s/%d", stage, attempt))
		mu.Unlock()
		return run()
	})
	if err := g.Run(1); err != nil {
		t.Fatal(err)
	}
	want := []string{"ok/1", "flaky/1", "flaky/2"}
	if fmt.Sprint(calls) != fmt.Sprint(want) {
		t.Fatalf("calls=%v, want %v", calls, want)
	}
}

func TestGraphMiddlewarePanicIsolated(t *testing.T) {
	g := NewGraph()
	g.Add("victim", func() error { return nil })
	g.SetMiddleware(func(stage string, attempt int, run func() error) error {
		panic("middleware bug")
	})
	err := g.Run(2)
	var se *StageError
	if !errors.As(err, &se) || !se.Panicked || se.Stage != "victim" {
		t.Fatalf("err=%v", err)
	}
}

func TestGraphObserverPanicDoesNotFailRun(t *testing.T) {
	g := NewGraph()
	g.Add("a", func() error { return nil })
	g.Add("b", func() error { return nil }, "a")
	g.SetObserver(func(stage string, seconds float64) { panic("bad telemetry") })
	g.SetEventHook(func(Event) { panic("bad hook") })
	if err := g.Run(2); err != nil {
		t.Fatalf("telemetry panic failed the run: %v", err)
	}
}

func TestRetryDeterministicAcrossWorkerCounts(t *testing.T) {
	// A graph with retryable flaky stages must produce identical outputs
	// for any worker count: each stage's result depends only on its own
	// (deterministic) attempt sequence, never on scheduling.
	outputs := func(workers int) string {
		var mu sync.Mutex
		results := map[string]int{}
		g := NewGraph()
		for i := 0; i < 6; i++ {
			name := fmt.Sprintf("s%d", i)
			i := i
			var tries int32
			g.Add(name, func() error {
				t := atomic.AddInt32(&tries, 1)
				if int(t) <= i%3 { // s0,s3 succeed first try; s2,s5 need 3 tries
					return errors.New("transient")
				}
				mu.Lock()
				results[name] = i * int(t)
				mu.Unlock()
				return nil
			})
		}
		g.SetRetry(RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond}, rng.New(7).SplitNamed("retry"))
		if err := g.Run(workers); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(results)
	}
	want := outputs(1)
	for _, w := range []int{2, 4, 8} {
		if got := outputs(w); got != want {
			t.Fatalf("workers=%d: %s != %s", w, got, want)
		}
	}
}

// settleGoroutines polls until the goroutine count returns to within
// slack of base, failing the test if it never settles. This is the
// goleak-style assertion: Run must not strand worker goroutines.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines did not settle: %d > %d\n%s", n, base, buf)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestGraphNoGoroutineLeakOnEarlyError(t *testing.T) {
	base := runtime.NumGoroutine()
	for iter := 0; iter < 20; iter++ {
		g := NewGraph()
		g.Add("bad", func() error { return errors.New("early") })
		for i := 0; i < 8; i++ {
			g.Add(fmt.Sprintf("s%d", i), func() error {
				time.Sleep(time.Millisecond)
				return nil
			})
		}
		if err := g.Run(4); err == nil {
			t.Fatal("expected error")
		}
	}
	settleGoroutines(t, base)
}

func TestGraphNoGoroutineLeakOnCancellation(t *testing.T) {
	base := runtime.NumGoroutine()
	for iter := 0; iter < 10; iter++ {
		ctx, cancel := context.WithCancel(context.Background())
		started := make(chan struct{})
		g := NewGraph()
		var once sync.Once
		for i := 0; i < 6; i++ {
			g.Add(fmt.Sprintf("s%d", i), func() error {
				once.Do(func() { close(started) })
				time.Sleep(time.Millisecond)
				return nil
			})
		}
		done := make(chan error, 1)
		go func() { done <- g.RunContext(ctx, 3) }()
		<-started
		cancel()
		<-done
	}
	settleGoroutines(t, base)
}

func TestGraphAwaitsInFlightStagesBeforeReturning(t *testing.T) {
	// Run must never return while a stage goroutine is still executing
	// user code — the in-flight counter has to be zero at return.
	var inFlight atomic.Int64
	g := NewGraph()
	g.Add("bad", func() error { return errors.New("fail fast") })
	for i := 0; i < 6; i++ {
		g.Add(fmt.Sprintf("s%d", i), func() error {
			inFlight.Add(1)
			defer inFlight.Add(-1)
			time.Sleep(3 * time.Millisecond)
			return nil
		})
	}
	if err := g.Run(4); err == nil {
		t.Fatal("expected error")
	}
	if n := inFlight.Load(); n != 0 {
		t.Fatalf("%d stages still in flight after Run returned", n)
	}
}
