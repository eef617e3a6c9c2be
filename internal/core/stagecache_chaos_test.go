//go:build chaos

package core

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/stagecache"
	"repro/internal/table"
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

// heldSummary is what the POST summary reads of a run: the cohort
// sizes, the rakes' effective n, the job count and the policy sim's
// metrics. None of it may load a held stage.
func heldSummary(a *Artifacts) any {
	return []any{len(a.Cohort2011), len(a.Cohort2024), a.Rake2011.EffectiveN, a.Rake2024.EffectiveN,
		a.JobCount(), a.Sim.Metrics}
}

// reblock rewrites the table block of a trace or telemetry payload:
// mutate edits its column bytes, rows is the header's row count
// (negative keeps it), and the checksum is recomputed, so the store's
// and the envelope's checks both pass.
func reblock(t *testing.T, payload []byte, rows int, mutate func(cols []byte)) []byte {
	t.Helper()
	r := table.NewReader(payload)
	magic := r.String()
	block := r.Raw(int(r.Uvarint()))
	const streamMagic = "rcpt-col/1\n"
	br := table.NewReader(block[len(streamMagic):])
	headerRows := br.Uvarint()
	cols := bytes.Clone(br.Raw(int(br.Uvarint()) + sha256.Size)[sha256.Size:])
	if err := r.Err(); err != nil || br.Err() != nil || string(block[:len(streamMagic)]) != streamMagic {
		t.Fatalf("not a table payload: %v %v", err, br.Err())
	}
	if mutate != nil {
		mutate(cols)
	}
	if rows < 0 {
		rows = int(headerRows)
	}
	sum := sha256.Sum256(cols)
	bw := table.NewWriter(nil)
	bw.Raw([]byte(streamMagic))
	bw.Uvarint(uint64(rows))
	bw.Uvarint(uint64(len(cols)))
	bw.Raw(sum[:])
	bw.Raw(cols)
	w := table.NewWriter(nil)
	w.String(magic)
	w.Uvarint(uint64(len(bw.Bytes())))
	w.Raw(bw.Bytes())
	return w.Bytes()
}

// resim re-encodes a sim payload after mutate edits its decoded form.
func resim(t *testing.T, payload []byte, mutate func(o simOutput)) []byte {
	t.Helper()
	o, err := decodeSimPayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	mutate(o)
	out, err := encodeSimPayload(o)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestChaosHeldPayloadPoison feeds the run payloads the store vouches
// for that pass the hold and fail at first read (and one the hold
// refuses). For each: the summary a POST serves equals an uncached
// run's, the first render that reads the poisoned stage equals the
// uncached run's bytes, the entry is deleted once, and the next run
// hits the repaired entry.
func TestChaosHeldPayloadPoison(t *testing.T) {
	cfg := equivConfig() // sim year 2013, a panel
	plain, err := RunWithOptions(t.Context(), cfg, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	lastByte := func(b byte) func([]byte) { return func(cols []byte) { cols[len(cols)-1] = b } }
	for _, c := range []struct {
		name, stage, render string
		atHold              bool // the hold refuses it, not the first read
		poison              func(t *testing.T, payload []byte) []byte
	}{
		// The last byte is the last row's language code: 127 names no
		// entry of the language dictionary.
		{"trace code out of range", "trace-2013", "T5", false, func(t *testing.T, p []byte) []byte {
			return reblock(t, p, -1, lastByte(0x7f))
		}},
		// The last byte is the last event's module code.
		{"telemetry code out of range", "modlog-2013", "T10", false, func(t *testing.T, p []byte) []byte {
			return reblock(t, p, -1, lastByte(0x7f))
		}},
		{"header row count", "trace-2013", "T5", true, func(t *testing.T, p []byte) []byte {
			held, err := jobsCodec.decode(p)
			if err != nil {
				t.Fatal(err)
			}
			return reblock(t, p, held.Len(table.Exact)+1, nil)
		}},
		{"sim repeated row", "sim-policy", "F4", false, func(t *testing.T, p []byte) []byte {
			return resim(t, p, func(o simOutput) { o.rows[1] = o.rows[0] })
		}},
		{"sim wait", "sim-fcfs", "F10", false, func(t *testing.T, p []byte) []byte {
			return resim(t, p, func(o simOutput) { o.res.Results[0].Wait++ })
		}},
		{"truncated panel", "panel", "T11", false, func(t *testing.T, p []byte) []byte {
			return p[:len(p)-len(p)/3]
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, err := Lookup(c.render)
			if err != nil {
				t.Fatal(err)
			}
			if !e.readsStage(c.stage) {
				t.Fatalf("%s does not read %s", c.render, c.stage)
			}
			want := renderFormats(plain, e)
			cache := newMapStageCache()
			runCached(t, cfg, cache)
			key := stageKeys(t, cfg, newStageCacher(nil))[c.stage]
			cache.m[key] = c.poison(t, cache.m[key])

			got := runCached(t, cfg, cache)
			if !reflect.DeepEqual(heldSummary(got), heldSummary(plain)) {
				t.Fatalf("summary %v, uncached %v", heldSummary(got), heldSummary(plain))
			}
			if _, _, _, deletes := cache.stats(); deletes != 0 && !c.atHold || deletes != 1 && c.atHold {
				t.Fatalf("%d entries deleted before the first read (refused at hold: %v)", deletes, c.atHold)
			}
			if format, ok := sameRenders(want, renderFormats(got, e)); !ok {
				t.Fatalf("%s %s differs from the uncached run's", c.render, format)
			}
			if _, _, _, deletes := cache.stats(); deletes != 1 {
				t.Fatalf("deleted %d entries, want 1", deletes)
			}
			loads, hits, _, _ := cache.stats()
			again := runCached(t, cfg, cache)
			if format, ok := sameRenders(want, renderFormats(again, e)); !ok {
				t.Fatalf("repaired run's %s %s differs", c.render, format)
			}
			if l, h, _, _ := cache.stats(); h-hits != l-loads {
				t.Fatalf("repaired cache hit %d of %d loads", h-hits, l-loads)
			}
		})
	}
}
