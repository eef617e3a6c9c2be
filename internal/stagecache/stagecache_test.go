package stagecache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/durable"
	"repro/internal/obs"
)

// key derives a deterministic hex key for tests.
func key(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func TestMemoryRoundTrip(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	k := key("a")
	if _, ok := c.Load(k); ok {
		t.Fatal("load before store hit")
	}
	c.Store(k, []byte("payload-a"))
	got, ok := c.Load(k)
	if !ok || string(got) != "payload-a" {
		t.Fatalf("load = %q, %v", got, ok)
	}
	c.Delete(k)
	if _, ok := c.Load(k); ok {
		t.Fatal("load after delete hit")
	}
}

func TestLRUBounds(t *testing.T) {
	c, err := New(Options{MaxBytes: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		c.Store(key(fmt.Sprintf("k%d", i)), []byte{byte(i)})
	}
	if c.Len() != 3 || c.Bytes() != 3 {
		t.Fatalf("Len, Bytes = %d, %d, want 3, 3", c.Len(), c.Bytes())
	}
	// Oldest two evicted, newest three resident.
	if _, ok := c.Load(key("k0")); ok {
		t.Fatal("k0 survived eviction")
	}
	if _, ok := c.Load(key("k4")); !ok {
		t.Fatal("k4 evicted")
	}
}

func TestByteBounds(t *testing.T) {
	c, err := New(Options{MaxBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	c.Store(key("a"), make([]byte, 40))
	c.Store(key("b"), make([]byte, 40))
	if c.Bytes() > 64 {
		t.Fatalf("Bytes = %d, want <= 64", c.Bytes())
	}
	if _, ok := c.Load(key("a")); ok {
		t.Fatal("a should have been evicted by the byte bound")
	}
	if _, ok := c.Load(key("b")); !ok {
		t.Fatal("b missing")
	}
}

func TestOversizePayloadSkipped(t *testing.T) {
	c, err := New(Options{MaxEntryBytes: 8})
	if err != nil {
		t.Fatal(err)
	}
	c.Store(key("big"), make([]byte, 9))
	if _, ok := c.Load(key("big")); ok {
		t.Fatal("oversize payload was cached")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d, want 0", c.Len())
	}
}

func TestDiskReadThroughAndRestart(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	k := key("persisted")
	c.Store(k, []byte("survives"))

	// A fresh cache over the same directory — a process restart — serves
	// the entry by disk read-through without any re-store.
	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	restored, corrupt := c2.Warm(nil)
	if restored != 1 || corrupt != 0 {
		t.Fatalf("Warm = (%d, %d), want (1, 0)", restored, corrupt)
	}
	got, ok := c2.Load(k)
	if !ok || string(got) != "survives" {
		t.Fatalf("load after restart = %q, %v", got, ok)
	}
}

func TestWarmSweepsTempAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c.Store(key("good"), []byte("ok"))

	// A crashed mid-write temp file and a truncated entry.
	if err := os.WriteFile(filepath.Join(dir, durable.TempPrefix+"123"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := key("bad")
	if err := os.WriteFile(filepath.Join(dir, bad+suffix), []byte("rcpt-stg/1\ntrunc"), 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	restored, corrupt := c2.Warm(nil)
	if restored != 1 || corrupt != 1 {
		t.Fatalf("Warm = (%d, %d), want (1, 1)", restored, corrupt)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range entries {
		if strings.HasPrefix(de.Name(), durable.TempPrefix) {
			t.Fatalf("temp file %s survived warm sweep", de.Name())
		}
		if de.Name() == bad+suffix {
			t.Fatal("corrupt entry survived warm sweep")
		}
	}
	if _, ok := c2.Load(bad); ok {
		t.Fatal("corrupt entry loaded")
	}
}

func TestCorruptEntryDeletedOnLoad(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	k := key("flip")
	c.Store(k, []byte("content that will be damaged"))

	// Bit-flip the payload region on disk, then force a disk read by
	// using a fresh cache (empty memory tier).
	path := filepath.Join(dir, k+suffix)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0x01
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Load(k); ok {
		t.Fatal("bit-flipped entry loaded")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("bit-flipped entry not deleted")
	}
}

func TestEnvelopeKeyMismatch(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ka, kb := key("a"), key("b")
	c.Store(ka, []byte("a-bytes"))
	// Copy a's entry under b's name: valid checksum, wrong identity.
	blob, err := os.ReadFile(filepath.Join(dir, ka+suffix))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, kb+suffix), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Load(kb); ok {
		t.Fatal("cross-copied entry served under the wrong key")
	}
}

func TestMetricsCounting(t *testing.T) {
	reg := obs.NewRegistry()
	m := &Metrics{
		Hits:    reg.Counter("t_hits", "t"),
		Misses:  reg.Counter("t_misses", "t"),
		Stores:  reg.Counter("t_stores", "t"),
		Entries: reg.Gauge("t_entries", "t"),
	}
	c, err := New(Options{Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	k := key("m")
	c.Load(k)
	c.Store(k, []byte("x"))
	c.Load(k)
	if m.Misses.Value() != 1 || m.Hits.Value() != 1 || m.Stores.Value() != 1 {
		t.Fatalf("counters = hits %d misses %d stores %d", m.Hits.Value(), m.Misses.Value(), m.Stores.Value())
	}
	if m.Entries.Value() != 1 {
		t.Fatalf("entries gauge = %d", m.Entries.Value())
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	k := key("env")
	payload := bytes.Repeat([]byte{0xAB, 0, 0xCD}, 1000)
	blob := durable.Encode(k, payload, sha256.Sum256(payload))
	got, sum, err := durable.Decode(blob, k)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) || sum != sha256.Sum256(payload) {
		t.Fatal("payload mismatch after envelope round trip")
	}
	// Every truncation must fail verification, never mis-decode.
	for cut := 0; cut < len(blob); cut += 97 {
		if _, _, err := durable.Decode(blob[:cut], k); !errors.Is(err, durable.ErrCorrupt) {
			t.Fatalf("truncated envelope at %d decoded", cut)
		}
	}
}

// TestParentEntryStillLoads pins the disk format: a real stage entry
// written by the store before internal/durable existed must warm start
// and load byte-for-byte, with the store reporting its checksum.
func TestParentEntryStillLoads(t *testing.T) {
	const k = "43cfef9b87406f420f80f1ca745b368c75ef43d8528702d45ca24127598e3a23"
	blob, err := os.ReadFile(filepath.Join("testdata", k+suffix))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, k+suffix), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := New(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var visited []string
	if restored, corrupt := c.Warm(func(key string, _ Entry) { visited = append(visited, key) }); restored != 1 || corrupt != 0 {
		t.Fatalf("Warm = (%d, %d), want (1, 0)", restored, corrupt)
	}
	if len(visited) != 1 || visited[0] != k {
		t.Fatalf("Warm visited %v, want [%s]", visited, k)
	}
	e, ok := c.Get(k)
	if !ok {
		t.Fatal("parent-written entry did not load")
	}
	if e.Sum != sha256.Sum256(e.Payload) || !bytes.Equal(durable.Encode(k, e.Payload, e.Sum), blob) {
		t.Fatal("parent-written entry does not round-trip through the envelope")
	}
}
