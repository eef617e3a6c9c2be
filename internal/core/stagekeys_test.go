package core

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/sched"
)

var updateKeys = flag.Bool("update", false, "rewrite the stage key, render key and payload goldens in testdata")

// TestStageKeysGolden pins every stage's Merkle key to a value, not
// just to which keys move between configs: a silent key change orphans
// every persisted stage entry. Two configs cover the whole spec list —
// DefaultConfig, and a variant with no rake stages (Rake off), no
// panel, replica stage names (TraceScale 2) and another policy.
func TestStageKeysGolden(t *testing.T) {
	variant := DefaultConfig()
	variant.Rake = false
	variant.PanelN = 0
	variant.TraceScale = 2
	variant.Policy = sched.FCFS

	var b strings.Builder
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"default", DefaultConfig()}, {"variant", variant}} {
		keys := stageKeys(t, c.cfg, newStageCacher(newMapStageCache()))
		names := make([]string, 0, len(keys))
		for name := range keys {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s %s\n", c.name, name, keys[name])
		}
	}
	path := filepath.Join("testdata", "stagekeys.golden")
	if *updateKeys {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s (run `go test ./internal/core -run StageKeysGolden -update`): %v", path, err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("stage keys differ from %s:\ngot:\n%swant:\n%s", path, got, want)
	}
}

// TestPayloadsGolden pins the bytes of every cached stage payload, as
// length and SHA-256, for the two configs of stagekeys.golden. A peer
// answers a steal with trace payloads and a -stage-cache-dir holds
// every kind, so a codec change that moves these bytes without a
// version bump strands both.
func TestPayloadsGolden(t *testing.T) {
	variant := DefaultConfig()
	variant.Rake = false
	variant.PanelN = 0
	variant.TraceScale = 2
	variant.Policy = sched.FCFS

	var b strings.Builder
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"default", DefaultConfig()}, {"variant", variant}} {
		cache := newMapStageCache()
		runCached(t, c.cfg, cache)
		keys := stageKeys(t, c.cfg, newStageCacher(nil))
		names := make([]string, 0, len(keys))
		for name := range keys {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			p, ok := cache.m[keys[name]]
			if !ok {
				t.Fatalf("%s: no payload stored for %s", c.name, name)
			}
			fmt.Fprintf(&b, "%s %s %d %x\n", c.name, name, len(p), sha256.Sum256(p))
		}
	}
	path := filepath.Join("testdata", "payloads.golden")
	if *updateKeys {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s (run `go test ./internal/core -run PayloadsGolden -update`): %v", path, err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("stage payloads differ from %s:\ngot:\n%swant:\n%s", path, got, want)
	}
}
