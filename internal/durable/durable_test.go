package durable

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestWriteReadScan(t *testing.T) {
	dir := t.TempDir()
	payload := []byte("payload")
	if err := WriteFile(filepath.Join(dir, "k.x"), Encode("k", payload, sha256.Sum256(payload))); err != nil {
		t.Fatal(err)
	}
	got, sum, err := ReadFile(filepath.Join(dir, "k.x"), "k")
	if err != nil || !bytes.Equal(got, payload) || sum != sha256.Sum256(payload) {
		t.Fatalf("ReadFile = %q, %x, %v", got, sum, err)
	}
	if _, _, err := ReadFile(filepath.Join(dir, "k.x"), "other"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("key mismatch: err = %v, want ErrCorrupt", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "k.x")); !os.IsNotExist(err) {
		t.Fatal("ReadFile kept a file that failed verification")
	}
	if _, _, err := ReadFile(filepath.Join(dir, "k.x"), "k"); !os.IsNotExist(err) {
		t.Fatalf("missing file: err = %v, want not-exist", err)
	}

	for _, name := range []string{"b.x", "a.x", TempPrefix + "torn", "c.other"} {
		if err := os.WriteFile(filepath.Join(dir, name), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var stems []string
	Scan(dir, ".x", func(stem string) { stems = append(stems, stem) })
	if strings.Join(stems, ",") != "a,b" {
		t.Fatalf("Scan visited %v, want [a b]", stems)
	}
	if _, err := os.Stat(filepath.Join(dir, TempPrefix+"torn")); !os.IsNotExist(err) {
		t.Fatal("Scan kept a temp file")
	}
}

// FuzzDecode feeds arbitrary envelopes and keys to the one file
// decoder, seeded with a real stage entry written by the stage cache.
// Properties: no panic, every failure wraps ErrCorrupt, allocation stays
// proportional to the input, and an accepted envelope round-trips —
// re-encoding its payload decodes to the same payload and checksum.
func FuzzDecode(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "stagecache", "testdata", "*.stg"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed entries (err %v)", err)
	}
	for _, path := range seeds {
		blob, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		key := strings.TrimSuffix(filepath.Base(path), ".stg")
		f.Add(blob, key)
		f.Add(blob[:len(blob)/2], key)
	}
	f.Fuzz(func(t *testing.T, blob []byte, key string) {
		before := totalAlloc()
		payload, sum, err := Decode(blob, key)
		if grown := totalAlloc() - before; grown > 64<<10+2*uint64(len(blob)) {
			t.Fatalf("decoding %d bytes allocated %d", len(blob), grown)
		}
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
			return
		}
		if sum != sha256.Sum256(payload) {
			t.Fatal("accepted an envelope whose checksum does not match")
		}
		again, sum2, err := Decode(Encode(key, payload, sum), key)
		if err != nil || !bytes.Equal(again, payload) || sum2 != sum {
			t.Fatalf("round trip failed: %v", err)
		}
	})
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
