//go:build chaos

package table

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// Chaos coverage for the spill path: damaged spill files must be
// detected by the checksum envelope and transparently recomputed via
// the deterministic rebuild hook — with the recovered rows (and hence
// all downstream artifact bytes) identical to the undamaged run.

func buildSpilled(t *testing.T, rows []testRow, dir string) *Batches[testRow] {
	t.Helper()
	tab, err := FromSlice[testRow](testCodec{}, Options{BatchSize: 64, SpillDir: dir, Resident: 2}, rows)
	if err != nil {
		t.Fatal(err)
	}
	tab.SetRebuild(func(lo, hi int, into Columns[testRow]) error {
		for _, r := range rows[lo:hi] {
			into.Append(r)
		}
		return nil
	})
	return tab
}

func TestChaosCorruptSpillRecomputed(t *testing.T) {
	rows := testRows(1000)
	dir := t.TempDir()
	tab := buildSpilled(t, rows, dir)
	want, err := Rows[testRow](tab)
	if err != nil {
		t.Fatal(err)
	}
	wantEnc, err := EncodeStream[testRow](testCodec{}, tab)
	if err != nil {
		t.Fatal(err)
	}

	// Flip bytes in several spill files, covering payload, header and
	// checksum regions, plus one outright truncation.
	files, err := filepath.Glob(filepath.Join(dir, "batch-*.col"))
	if err != nil || len(files) < 3 {
		t.Fatalf("want >= 3 spill files, got %d (err %v)", len(files), err)
	}
	damage := []func(p string) error{
		func(p string) error { return flipByteAt(p, 5) },    // inside magic/header
		func(p string) error { return flipByteAt(p, -2) },   // inside payload tail
		func(p string) error { return truncateFile(p, 10) }, // torn write
	}
	for i, f := range files[:3] {
		if err := damage[i](f); err != nil {
			t.Fatal(err)
		}
	}
	evictAll(tab)

	got, err := Rows[testRow](tab)
	if err != nil {
		t.Fatalf("scan after corruption: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("recovered rows differ from original — corruption changed bytes")
	}

	// Recovery rewrote the damaged files in place: they must now pass
	// integrity checks directly, and the healed table, re-read from
	// disk, must encode to the pre-corruption stream.
	for bi := range files[:3] {
		if err := readSpill(dir, bi, tab.batches[bi].rows, Columns[testRow](&testColumns{})); err != nil {
			t.Fatalf("spill %s not healed: %v", files[bi], err)
		}
	}
	evictAll(tab)
	enc, err := EncodeStream[testRow](testCodec{}, tab)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, wantEnc) {
		t.Fatal("stream changed after recovery")
	}
}

func TestChaosCorruptSpillSharded(t *testing.T) {
	rows := testRows(2000)
	dir := t.TempDir()
	tab := buildSpilled(t, rows, dir)
	files, err := filepath.Glob(filepath.Join(dir, "batch-*.col"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no spill files (err %v)", err)
	}
	for _, f := range files {
		if err := flipByteAt(f, -1); err != nil {
			t.Fatal(err)
		}
	}
	evictAll(tab)
	for _, shards := range []int{3, 7} {
		var merged []testRow
		for s := 0; s < shards; s++ {
			sc := tab.Scanner(s, s+1, shards)
			for sc.Scan() {
				merged = append(merged, sc.Row())
			}
			if err := sc.Err(); err != nil {
				t.Fatalf("shard %d/%d: %v", s, shards, err)
			}
		}
		if !reflect.DeepEqual(merged, rows) {
			t.Fatalf("shards=%d: recovered sharded scan differs", shards)
		}
		evictAll(tab)
	}
}

func flipByteAt(path string, off int) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if off < 0 {
		off = len(data) + off
	}
	if off < 0 || off >= len(data) {
		return fmt.Errorf("offset %d out of range for %s", off, path)
	}
	data[off] ^= 0xff
	return os.WriteFile(path, data, 0o644)
}

func truncateFile(path string, keep int64) error {
	return os.Truncate(path, keep)
}
