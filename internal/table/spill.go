package table

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/durable"
)

// Spill files: batch bi of a table lives at <SpillDir>/batch-<bi>.col as
// one internal/durable envelope keyed by its own file name, holding the
// batch's Columns.EncodeTo bytes. The durable protocol (temp + fsync +
// rename, checksum, key in frame) means a reader sees either no file or
// a complete one, and a file copied to another batch's name fails
// verification. The row count is not stored: Batches already knows how
// many rows each batch holds and checks the decode against it.
//
// Integrity failures on read wrap durable.ErrCorrupt and are — because
// every batch is recomputable from the deterministic generators —
// recoverable: Batches rebuilds the rows and rewrites the spill, with
// bytes unchanged by construction.

// spillName names batch bi. Deterministic so warm restarts and rebuilds
// land on the same file.
func spillName(bi int) string {
	return fmt.Sprintf("batch-%06d.col", bi)
}

// spillPath is batch bi's file under dir.
func spillPath(dir string, bi int) string {
	return filepath.Join(dir, spillName(bi))
}

// spillExists reports whether batch bi has a spill file under dir.
func spillExists(dir string, bi int) bool {
	_, err := os.Stat(spillPath(dir, bi))
	return err == nil
}

// writeSpill persists batch bi's columns under dir.
func writeSpill[T any](dir string, bi int, cols Columns[T]) error {
	ew := NewWriter(nil)
	if err := cols.EncodeTo(ew); err != nil {
		return fmt.Errorf("table: encode spill: %w", err)
	}
	if err := ew.Err(); err != nil {
		return fmt.Errorf("table: encode spill: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("table: spill dir: %w", err)
	}
	p := ew.Bytes()
	if err := durable.WriteFile(spillPath(dir, bi), durable.Encode(spillName(bi), p, sha256.Sum256(p))); err != nil {
		return fmt.Errorf("table: write spill: %w", err)
	}
	return nil
}

// readSpill loads batch bi from dir into cols and checks it holds rows
// rows. Integrity failures wrap durable.ErrCorrupt.
func readSpill[T any](dir string, bi, rows int, cols Columns[T]) error {
	payload, _, err := durable.ReadFile(spillPath(dir, bi), spillName(bi))
	if err != nil {
		return fmt.Errorf("table: read spill: %w", err)
	}
	pr := NewReader(payload)
	err = cols.DecodeFrom(pr)
	if err == nil {
		err = pr.Err()
	}
	if err == nil && cols.Len() != rows {
		err = fmt.Errorf("row count %d, want %d", cols.Len(), rows)
	}
	if err != nil {
		return fmt.Errorf("table: spill %s: %w: %w", spillPath(dir, bi), durable.ErrCorrupt, err)
	}
	return nil
}
