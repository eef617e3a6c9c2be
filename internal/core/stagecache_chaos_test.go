//go:build chaos

package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/stagecache"
)

// Chaos coverage for the stage-cache failure contract: a damaged stage
// envelope — torn write, bit flip, or a payload that passes the
// checksum but no longer decodes — must degrade to a verified
// recompute. Faults cost latency, never bytes: every artifact of the
// damaged-cache run is identical to the clean run's.

func flipLastByte(t *testing.T, path string) {
	t.Helper()
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0x40
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

func truncateHalf(t *testing.T, path string) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
}

// TestChaosStageCacheDiskCorruption damages every persisted stage
// entry — alternating bit flips and truncations — and re-runs against
// the damaged store. The checksum envelope must reject every entry
// (zero hits), the run must recompute everything, and the artifacts
// must match the cold run byte for byte.
func TestChaosStageCacheDiskCorruption(t *testing.T) {
	cfg := equivConfig()
	dir := t.TempDir()
	c1, err := stagecache.New(stagecache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cold := runCached(t, cfg, c1)

	files, err := filepath.Glob(filepath.Join(dir, "*.stg"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("cold run spilled no stage entries")
	}
	for i, p := range files {
		if i%2 == 0 {
			flipLastByte(t, p)
		} else {
			truncateHalf(t, p)
		}
	}

	reg := obs.NewRegistry()
	m := &stagecache.Metrics{
		Hits:    reg.Counter("chaos_hits", "t"),
		Corrupt: reg.Counter("chaos_corrupt", "t"),
	}
	c2, err := stagecache.New(stagecache.Options{Dir: dir, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	warm := runCached(t, cfg, c2)
	assertArtifactsEqual(t, "cold", "after-disk-corruption", cold, warm)
	if m.Hits.Value() != 0 {
		t.Fatalf("%d corrupted entries served as hits", m.Hits.Value())
	}
	if m.Corrupt.Value() == 0 {
		t.Fatal("no corruption detected despite damaging every entry")
	}

	// The recompute re-stored every stage; a third cache over the same
	// directory must warm-start clean and serve a fully cached run.
	c3, err := stagecache.New(stagecache.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if restored, corrupt := c3.Warm(nil); restored == 0 || corrupt != 0 {
		t.Fatalf("Warm after recompute = (%d, %d), want (>0, 0)", restored, corrupt)
	}
	again := runCached(t, cfg, c3)
	assertArtifactsEqual(t, "cold", "rewarmed", cold, again)
}

// TestChaosStageCacheCodecSkew feeds the run garbage payloads that the
// storage layer vouches for (a fake cache returns them as valid hits):
// the decode layer must reject each one, delete the poisoned entry so
// it is never retried, recompute, and still produce artifacts identical
// to an uncached run.
func TestChaosStageCacheCodecSkew(t *testing.T) {
	cfg := equivConfig()
	plain, err := RunWithOptions(t.Context(), cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}

	keys := stageKeys(t, cfg, newStageCacher(newMapStageCache()))
	cache := newMapStageCache()
	garbage := [][]byte{
		nil,                           // empty payload
		[]byte("not a stage payload"), // wrong magic
		[]byte("rcpt-stage-cohort/1"), // right magic for one kind, truncated
	}
	i := 0
	for _, k := range keys {
		cache.m[k] = garbage[i%len(garbage)]
		i++
	}

	got := runCached(t, cfg, cache)
	assertArtifactsEqual(t, "uncached", "poisoned-cache", plain, got)
	_, _, _, deletes := cache.stats()
	if deletes != len(keys) {
		t.Fatalf("deleted %d poisoned entries, want %d", deletes, len(keys))
	}
	// Every poisoned entry must have been replaced by a freshly computed
	// payload that now round-trips: a second run is all hits.
	before, hitsBefore, _, _ := cache.stats()
	warm := runCached(t, cfg, cache)
	assertArtifactsEqual(t, "uncached", "repaired-cache", plain, warm)
	loads, hits, _, _ := cache.stats()
	if warmLoads, warmHits := loads-before, hits-hitsBefore; warmHits != warmLoads {
		t.Fatalf("repaired cache hit %d of %d loads", warmHits, warmLoads)
	}
}
