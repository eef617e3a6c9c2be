package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/population"
	"repro/internal/sched"
	"repro/internal/stagecache"
	"repro/internal/survey"
	"repro/internal/trace"
)

// mapStageCache is a minimal in-memory StageCache with counters,
// independent of internal/stagecache so these tests pin the core-side
// contract alone.
type mapStageCache struct {
	mu      sync.Mutex
	m       map[string][]byte
	loads   int
	hits    int
	stores  int
	deletes int
}

func newMapStageCache() *mapStageCache { return &mapStageCache{m: map[string][]byte{}} }

func (c *mapStageCache) Load(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.loads++
	p, ok := c.m[key]
	if ok {
		c.hits++
	}
	return p, ok
}

func (c *mapStageCache) Store(key string, payload []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stores++
	c.m[key] = payload
}

func (c *mapStageCache) Delete(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deletes++
	delete(c.m, key)
}

func (c *mapStageCache) stats() (loads, hits, stores, deletes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.loads, c.hits, c.stores, c.deletes
}

// runCached executes cfg against cache.
func runCached(t *testing.T, cfg Config, cache StageCache) *Artifacts {
	t.Helper()
	a, err := RunWithOptions(t.Context(), cfg, RunOptions{StageCache: cache})
	if err != nil {
		t.Fatalf("cached run: %v", err)
	}
	return a
}

// TestStageCacheEquivalence is the tentpole equivalence matrix: for
// every worker count, a run restored entirely from a warm stage cache
// must be byte-identical to the cold run that filled it — and to a
// plain uncached run. With spill, the warm run reads every entry back
// from the production store's disk tier instead of the memory the cold
// run stored it in.
func TestStageCacheEquivalence(t *testing.T) {
	base := equivConfig()
	for _, workers := range []int{1, 2, 8} {
		for _, spill := range []bool{false, true} {
			name := fmt.Sprintf("workers=%d,spill=%v", workers, spill)
			t.Run(name, func(t *testing.T) {
				cfg := base
				cfg.Workers = workers
				plain, err := RunWithOptions(t.Context(), cfg, RunOptions{})
				if err != nil {
					t.Fatalf("uncached run: %v", err)
				}
				cache := newMapStageCache()
				cold := runCached(t, cfg, cache)
				assertArtifactsEqual(t, "uncached", "cold-cached", plain, cold)
				_, hitsBefore, stores, _ := cache.stats()
				if hitsBefore != 0 {
					t.Fatalf("cold run hit %d entries in an empty cache", hitsBefore)
				}
				if stores == 0 {
					t.Fatal("cold run stored nothing")
				}
				if spill {
					cache.m = spillEntries(t, cache.m)
				}
				warm := runCached(t, cfg, cache)
				assertArtifactsEqual(t, "cold-cached", "warm-cached", cold, warm)
				loads, hits, _, _ := cache.stats()
				// Every cacheable stage must hit on the warm run: total hits
				// equal the warm run's loads minus the cold run's misses.
				if warmHits := hits; warmHits < stores {
					t.Fatalf("warm run hit %d of %d cached stages (loads %d)", warmHits, stores, loads)
				}
			})
		}
	}
}

// spillEntries writes every entry of m through stagecache's disk tier
// and returns what a fresh store over the same directory reads back.
func spillEntries(t *testing.T, m map[string][]byte) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	disk, err := stagecache.New(stagecache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for key, payload := range m {
		disk.Store(key, payload)
	}
	fresh, err := stagecache.New(stagecache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(m))
	for key := range m {
		payload, ok := fresh.Load(key)
		if !ok {
			t.Fatalf("stage entry %s did not come back from disk", key)
		}
		out[key] = payload
	}
	return out
}

// TestStageCachePartialInvalidation pins the invalidation matrix: a
// late-DAG policy change must recompute exactly the sim-policy stage
// and reuse everything else, byte-identical to a cold run of the new
// config.
func TestStageCachePartialInvalidation(t *testing.T) {
	cfg := equivConfig()
	cache := newMapStageCache()
	runCached(t, cfg, cache)
	_, _, storesCold, _ := cache.stats()

	changed := cfg
	changed.Policy = sched.ConservativeBackfill
	fresh, err := RunWithOptions(t.Context(), changed, RunOptions{})
	if err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	warm := runCached(t, changed, cache)
	assertArtifactsEqual(t, "fresh", "warm-after-policy-change", fresh, warm)

	loads2, hits2, stores2, _ := cache.stats()
	recomputed := stores2 - storesCold
	if recomputed != 1 {
		t.Fatalf("policy change recomputed %d stages, want exactly 1 (sim-policy)", recomputed)
	}
	if misses := loads2 - hits2 - storesCold; misses != 1 {
		t.Fatalf("policy change missed %d stages, want 1", misses)
	}
}

// TestStageCacheFieldSubsets pins which config fields reach which stage
// keys — the machine-readable half of DESIGN.md's invalidation matrix.
func TestStageCacheFieldSubsets(t *testing.T) {
	base := equivConfig()
	keysFor := func(cfg Config) map[string]string {
		return stageKeys(t, cfg, newStageCacher(newMapStageCache()))
	}
	baseKeys := keysFor(base)

	t.Run("policy touches only sim-policy", func(t *testing.T) {
		cfg := base
		cfg.Policy = sched.FCFS
		diff := diffKeys(baseKeys, keysFor(cfg))
		want := map[string]bool{"sim-policy": true}
		if !sameSet(diff, want) {
			t.Fatalf("policy change invalidated %v, want %v", diff, want)
		}
	})
	t.Run("n2011 touches the 2011 chain only", func(t *testing.T) {
		cfg := base
		cfg.N2011 += 5
		diff := diffKeys(baseKeys, keysFor(cfg))
		want := map[string]bool{"cohort-2011": true, "rake-2011": true}
		if !sameSet(diff, want) {
			t.Fatalf("n2011 change invalidated %v, want %v", diff, want)
		}
	})
	t.Run("paneln touches only panel", func(t *testing.T) {
		cfg := base
		cfg.PanelN += 5
		diff := diffKeys(baseKeys, keysFor(cfg))
		want := map[string]bool{"panel": true}
		if !sameSet(diff, want) {
			t.Fatalf("paneln change invalidated %v, want %v", diff, want)
		}
	})
	t.Run("seed touches everything cacheable", func(t *testing.T) {
		cfg := base
		cfg.Seed++
		diff := diffKeys(baseKeys, keysFor(cfg))
		if len(diff) != len(baseKeys) {
			t.Fatalf("seed change invalidated %d of %d stages", len(diff), len(baseKeys))
		}
	})
}

// stageKeys builds the graph (without running it) and returns the
// derived key map.
func stageKeys(t *testing.T, cfg Config, sc *stageCacher) map[string]string {
	t.Helper()
	a := &Artifacts{
		Config:     cfg,
		Instrument: survey.Canonical(),
		Model2011:  population.Model2011(),
		Model2024:  population.Model2024(),
		JobsByYr:   map[int]trace.JobTable{},
	}
	if _, err := buildGraph(t.Context(), cfg, a, nil, sc); err != nil {
		t.Fatalf("buildGraph: %v", err)
	}
	return sc.keys
}

func diffKeys(a, b map[string]string) map[string]bool {
	diff := map[string]bool{}
	for k, v := range a {
		if b[k] != v {
			diff[k] = true
		}
	}
	for k, v := range b {
		if a[k] != v {
			diff[k] = true
		}
	}
	return diff
}

func sameSet(got map[string]bool, want map[string]bool) bool {
	if len(got) != len(want) {
		return false
	}
	for k := range want {
		if !got[k] {
			return false
		}
	}
	return true
}

// TestTraceScaleReusesReplicas: growing TraceScale must keep every
// previously derived replica key, so a 3× run reuses the 2× run's
// stages.
func TestTraceScaleReusesReplicas(t *testing.T) {
	cfg := equivConfig()
	cfg.TraceScale = 2
	sc2 := newStageCacher(newMapStageCache())
	keys2 := stageKeys(t, cfg, sc2)
	cfg.TraceScale = 3
	sc3 := newStageCacher(newMapStageCache())
	keys3 := stageKeys(t, cfg, sc3)
	for name, k := range keys2 {
		switch name {
		case "sim-policy", "sim-fcfs", "sim-conservative", "modlog-merge":
			// Merge/sim keys change with the replica set — correct, their
			// inputs changed.
			continue
		}
		if keys3[name] != k {
			t.Fatalf("stage %s key changed when TraceScale grew 2→3", name)
		}
	}
}

// TestStageCacheRealStoreEquivalence runs the equivalence check through
// the production internal/stagecache store with its disk tier — the
// integration the daemon actually ships.
func TestStageCacheRealStoreEquivalence(t *testing.T) {
	cfg := equivConfig()
	dir := t.TempDir()
	cache, err := stagecache.New(stagecache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cold := runCached(t, cfg, cache)

	// A fresh store over the same directory: every payload must come
	// back through the checksummed disk tier.
	cache2, err := stagecache.New(stagecache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if restored, corrupt := cache2.Warm(nil); restored == 0 || corrupt != 0 {
		t.Fatalf("Warm = (%d, %d), want (>0, 0)", restored, corrupt)
	}
	warm := runCached(t, cfg, cache2)
	assertArtifactsEqual(t, "cold", "warm-from-disk", cold, warm)
}

// TestTraceStageKeyMatchesGraph pins RunStage to the graph's keys: a
// stage a peer computes standalone is stored under the very key the
// run's own stage derives, so a steal served or filled through the
// stage cache and a run hit the same entry.
func TestTraceStageKeyMatchesGraph(t *testing.T) {
	cfg := equivConfig()
	keys := stageKeys(t, cfg, newStageCacher(newMapStageCache()))
	for _, year := range cfg.TraceYears {
		name := traceStreamName(year, 0)
		if keys[name] == "" {
			t.Fatalf("no graph key for %s", name)
		}
		cache := newMapStageCache()
		payload, err := RunStage(t.Context(), cfg, name, cache)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := cache.m[keys[name]]; !ok || string(got) != string(payload) {
			t.Fatalf("RunStage(%s) did not store its payload under the graph key", name)
		}
		// A second call is a hit that returns the stored bytes.
		again, err := RunStage(t.Context(), cfg, name, cache)
		if err != nil {
			t.Fatal(err)
		}
		if _, hits, stores, _ := cache.stats(); hits != 1 || stores != 1 || string(again) != string(payload) {
			t.Fatalf("second RunStage(%s): hits %d, stores %d, same bytes %v", name, hits, stores, string(again) == string(payload))
		}
	}
}
