package core

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/parallel"
)

// TestTraceStageHookEquivalence pins the distribution seam's contract:
// a run whose trace stages are all stolen through the Steal hook —
// here a standalone RunStage, i.e. exactly what a peer answers a steal
// with — produces artifacts deeply equal and byte-identical to a plain
// run, and the hook sees the trace stages and nothing else.
func TestTraceStageHookEquivalence(t *testing.T) {
	cfg := equivConfig()
	cfg.TraceScale = 2 // cover rep>0 stage names through the hook
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	hooked, err := RunWithOptions(context.Background(), cfg, RunOptions{
		Steal: func(ctx context.Context, cfg Config, stage string, _ func() error) ([]byte, error) {
			calls.Add(1)
			if !strings.HasPrefix(stage, "trace-") {
				t.Errorf("hook offered non-trace stage %q", stage)
			}
			return RunStage(ctx, cfg, stage, nil)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(cfg.TraceYears) * cfg.TraceScale); calls.Load() != want {
		t.Fatalf("hook called %d times, want %d", calls.Load(), want)
	}
	assertArtifactsEqual(t, "in-process", "via hook", base, hooked)
}

// TestTraceStageHookError: a hook failure is a stage failure — it
// surfaces as a *parallel.StageError naming the trace stage, the same
// typed path every local stage error takes.
func TestTraceStageHookError(t *testing.T) {
	cfg := equivConfig()
	boom := errors.New("peer melted")
	_, err := RunWithOptions(context.Background(), cfg, RunOptions{
		Steal: func(_ context.Context, cfg Config, stage string, local func() error) ([]byte, error) {
			if stage == "trace-2013" {
				return nil, boom
			}
			return nil, local()
		},
	})
	var se *parallel.StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want *parallel.StageError", err)
	}
	if se.Stage != "trace-2013" {
		t.Fatalf("stage = %q, want trace-2013", se.Stage)
	}
	if !errors.Is(err, boom) {
		t.Fatal("hook error not preserved in the chain")
	}
}

// TestStealBadPayloadComputesLocally: a stolen payload that does not
// restore is dropped, never stored, and the stage computes here: the
// artifacts still match a plain run and the cache holds the locally
// computed payload.
func TestStealBadPayloadComputesLocally(t *testing.T) {
	cfg := equivConfig()
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cache := newMapStageCache()
	got, err := RunWithOptions(context.Background(), cfg, RunOptions{
		StageCache: cache,
		Steal: func(context.Context, Config, string, func() error) ([]byte, error) {
			return []byte("rcpt-stage-jobs/1 but not really"), nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	assertArtifactsEqual(t, "plain", "bad steals", base, got)
	keys := stageKeys(t, cfg, newStageCacher(newMapStageCache()))
	for _, year := range cfg.TraceYears {
		name := traceStreamName(year, 0)
		payload, ok := cache.m[keys[name]]
		if !ok {
			t.Fatalf("%s: locally computed payload not stored", name)
		}
		want, err := RunStage(context.Background(), cfg, name, nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(payload) != string(want) {
			t.Fatalf("%s: stored payload is not the locally computed one", name)
		}
	}
}

// TestRunStageValidation: the standalone stage entry point is the
// surface a peer endpoint exposes, so it must reject names outside the
// config's stealable stages instead of fabricating streams for them.
func TestRunStageValidation(t *testing.T) {
	cfg := equivConfig()
	for _, name := range []string{
		"trace-1999",      // a year outside TraceYears
		"trace-2011-rep1", // a replica beyond the trace scale
		"trace-2011-rep-1",
		"cohort-2011", // a real stage, but not stealable
		"",
	} {
		if _, err := RunStage(context.Background(), cfg, name, nil); err == nil {
			t.Fatalf("RunStage accepted %q", name)
		}
	}
	bad := cfg
	bad.TraceYears = nil
	if _, err := RunStage(context.Background(), bad, "trace-2011", nil); err == nil {
		t.Fatal("RunStage accepted an invalid config")
	}
}
