package fault

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/parallel"
	"repro/internal/rng"
)

func TestDecideIsDeterministic(t *testing.T) {
	spec := Spec{Seed: 7, PanicProb: 0.2, ErrorProb: 0.2, LatencyProb: 0.2}
	a, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	stages := []string{"cohort-2011", "trace-2013", "sim-policy", "rake-2024"}
	// Same decisions regardless of query order or interleaving.
	for _, st := range stages {
		for attempt := 1; attempt <= 4; attempt++ {
			if got, want := a.Decide(st, attempt), b.Decide(st, attempt); got != want {
				t.Fatalf("%s/%d: %v != %v", st, attempt, got, want)
			}
		}
	}
	for attempt := 4; attempt >= 1; attempt-- {
		for i := len(stages) - 1; i >= 0; i-- {
			if got, want := a.Decide(stages[i], attempt), b.Decide(stages[i], attempt); got != want {
				t.Fatalf("reversed %s/%d: %v != %v", stages[i], attempt, got, want)
			}
		}
	}
}

func TestDecideConcurrentConsistency(t *testing.T) {
	in, err := New(Spec{Seed: 3, PanicProb: 0.3, ErrorProb: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	// Record the serial answers, then hammer Decide from many goroutines:
	// every answer must match (SplitNamed is a pure read of the root).
	want := map[string]Decision{}
	for s := 0; s < 8; s++ {
		for a := 1; a <= 3; a++ {
			k := fmt.Sprintf("s%d/%d", s, a)
			want[k] = in.Decide(fmt.Sprintf("s%d", s), a)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := 0; s < 8; s++ {
				for a := 1; a <= 3; a++ {
					k := fmt.Sprintf("s%d/%d", s, a)
					if got := in.Decide(fmt.Sprintf("s%d", s), a); got != want[k] {
						select {
						case errs <- k:
						default:
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if k, bad := <-errs; bad {
		t.Fatalf("concurrent Decide diverged at %s", k)
	}
}

func TestDecisionRatesTrackProbabilities(t *testing.T) {
	in, err := New(Spec{Seed: 11, PanicProb: 0.25, ErrorProb: 0.25, LatencyProb: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Decision]int{}
	const n = 4000
	for i := 0; i < n; i++ {
		counts[in.Decide(fmt.Sprintf("stage-%d", i), 1)]++
	}
	for _, d := range []Decision{None, Panic, Error, Latency} {
		frac := float64(counts[d]) / n
		if frac < 0.20 || frac > 0.30 {
			t.Fatalf("%v rate %.3f far from 0.25 (counts=%v)", d, frac, counts)
		}
	}
}

func TestStageScoping(t *testing.T) {
	in, err := New(Spec{Seed: 1, ErrorProb: 1, Stages: []string{"only-this"}})
	if err != nil {
		t.Fatal(err)
	}
	if d := in.Decide("other", 1); d != None {
		t.Fatalf("out-of-scope stage got %v", d)
	}
	if d := in.Decide("only-this", 1); d != Error {
		t.Fatalf("in-scope stage got %v", d)
	}
}

func TestMiddlewareInjectsBeforeRun(t *testing.T) {
	in, err := New(Spec{Seed: 1, ErrorProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	mw := in.Middleware()
	ran := false
	errInj := mw("s", 1, func() error { ran = true; return nil })
	if !errors.Is(errInj, ErrInjected) {
		t.Fatalf("err=%v", errInj)
	}
	if ran {
		t.Fatal("stage body ran despite injected error")
	}
	if _, e, _ := in.Counts(); e != 1 {
		t.Fatalf("error count=%d", e)
	}
}

func TestMiddlewarePanicNamesStageAndAttempt(t *testing.T) {
	in, err := New(Spec{Seed: 1, PanicProb: 1})
	if err != nil {
		t.Fatal(err)
	}
	mw := in.Middleware()
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("no panic")
		}
		s := fmt.Sprint(p)
		if s != "fault: injected panic in victim attempt 2" {
			t.Fatalf("panic=%q", s)
		}
	}()
	_ = mw("victim", 2, func() error { return nil })
}

func TestMiddlewareLatencyDelaysThenRuns(t *testing.T) {
	in, err := New(Spec{Seed: 1, LatencyProb: 1, Latency: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	mw := in.Middleware()
	ran := false
	start := time.Now()
	if err := mw("s", 1, func() error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("stage body did not run after latency fault")
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Fatalf("no delay observed: %v", d)
	}
	if _, _, delays := in.Counts(); delays != 1 {
		t.Fatalf("delay count=%d", delays)
	}
}

// TestInjectedGraphIsRecoverable wires an injector into a real stage
// graph with retries: with ~1/3 of first attempts failing and 4
// attempts available, the graph must converge and the daemon-facing
// invariant — injected panics become typed errors, never process
// crashes — must hold.
func TestInjectedGraphIsRecoverable(t *testing.T) {
	in, err := New(Spec{Seed: 5, PanicProb: 0.15, ErrorProb: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	got := map[string]int{}
	g := parallel.NewGraph()
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("s%d", i)
		i := i
		g.Add(name, func() error {
			mu.Lock()
			got[name] = i * i
			mu.Unlock()
			return nil
		})
	}
	g.SetRetry(parallel.RetryPolicy{MaxAttempts: 6, BaseDelay: time.Microsecond}, rng.New(1))
	g.SetMiddleware(in.Middleware())
	if err := g.Run(4); err != nil {
		t.Fatalf("graph did not converge under injection: %v", err)
	}
	if len(got) != 12 {
		t.Fatalf("only %d stages completed", len(got))
	}
	p, e, _ := in.Counts()
	if p+e == 0 {
		t.Fatal("injector fired nothing; test is vacuous")
	}
}

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("seed=7,panic=0.1,error=0.2,latency=0.05,delay=20ms,stages=trace-2011|rake-2024")
	if err != nil {
		t.Fatal(err)
	}
	want := Spec{
		Seed: 7, PanicProb: 0.1, ErrorProb: 0.2, LatencyProb: 0.05,
		Latency: 20 * time.Millisecond, Stages: []string{"rake-2024", "trace-2011"},
	}
	if fmt.Sprint(spec) != fmt.Sprint(want) {
		t.Fatalf("spec=%+v, want %+v", spec, want)
	}
	if empty, err := ParseSpec(""); err != nil || empty.Enabled() {
		t.Fatalf("empty spec: %+v err=%v", empty, err)
	}
	for _, bad := range []string{
		"panic=2", "wat=1", "panic", "delay=xyz", "panic=0.6,error=0.6",
		"panic=NaN", "panic=nan,error=0.9", "netpart=NaN",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}
