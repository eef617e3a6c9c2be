// Package durable is the repository's one crash-safe file protocol. It
// has three parts, each used by every store that keeps bytes on disk
// (internal/stagecache, and through it the serving layer's render
// cache):
//
//   - the "rcpt-stg/1" envelope: magic, the entry's key, payload length,
//     SHA-256 and payload. The key rides inside the frame, so a file
//     renamed or copied under another name fails verification instead of
//     answering for the wrong entry;
//   - WriteFile: temp file in the target directory, fsync, close, atomic
//     rename, then a best-effort directory fsync. A kill at any instant
//     leaves either no entry or a complete one under its final name;
//   - Scan: a warm-start walk in explicitly sorted name order that sweeps
//     the temp files crashed writes left behind.
//
// Verification failures wrap ErrCorrupt, and ReadFile deletes the file
// that produced one: every store treats a damaged entry as a miss and
// recomputes it, so faults cost latency, never bytes.
package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const (
	magic = "rcpt-stg/1\n"
	// MaxKeyLen bounds the framed key; the decoder rejects longer length
	// headers before slicing.
	MaxKeyLen = 200
	// TempPrefix starts the name of every file WriteFile has not yet
	// renamed into place; Scan deletes such files.
	TempPrefix = ".stg-"
)

// ErrCorrupt marks an envelope that failed verification: bad magic,
// framing, key, length or checksum.
var ErrCorrupt = errors.New("corrupt envelope")

// Encode frames payload under key. sum must be the SHA-256 of payload;
// callers pass it in because they already hold it.
func Encode(key string, payload []byte, sum [sha256.Size]byte) []byte {
	var b bytes.Buffer
	b.Grow(len(magic) + 2*binary.MaxVarintLen64 + len(key) + sha256.Size + len(payload))
	b.WriteString(magic)
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(key)))])
	b.WriteString(key)
	b.Write(tmp[:binary.PutUvarint(tmp[:], uint64(len(payload)))])
	b.Write(sum[:])
	b.Write(payload)
	return b.Bytes()
}

// Decode verifies one envelope against key and returns its payload (a
// subslice of blob) and checksum. It allocates nothing proportional to
// the length headers: blob is the whole entry, so every length is
// checked against bytes that are already there.
func Decode(blob []byte, key string) ([]byte, [sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	rest, ok := bytes.CutPrefix(blob, []byte(magic))
	if !ok {
		return nil, sum, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	keyLen, n := binary.Uvarint(rest)
	if n <= 0 || keyLen > MaxKeyLen || uint64(len(rest)-n) < keyLen {
		return nil, sum, fmt.Errorf("%w: bad key length", ErrCorrupt)
	}
	rest = rest[n:]
	if string(rest[:keyLen]) != key {
		return nil, sum, fmt.Errorf("%w: key mismatch", ErrCorrupt)
	}
	rest = rest[keyLen:]
	payLen, n := binary.Uvarint(rest)
	if n <= 0 {
		return nil, sum, fmt.Errorf("%w: bad payload length", ErrCorrupt)
	}
	rest = rest[n:]
	if len(rest) < sha256.Size || payLen != uint64(len(rest)-sha256.Size) {
		return nil, sum, fmt.Errorf("%w: truncated", ErrCorrupt)
	}
	copy(sum[:], rest)
	payload := rest[sha256.Size:]
	if sha256.Sum256(payload) != sum {
		return nil, sum, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	return payload, sum, nil
}

// ReadFile loads and verifies the envelope at path. A file that fails
// verification is deleted, so it is never retried, and the error wraps
// ErrCorrupt; a missing or unreadable file returns the os error.
func ReadFile(path, key string) ([]byte, [sha256.Size]byte, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, [sha256.Size]byte{}, err
	}
	payload, sum, err := Decode(blob, key)
	if err != nil {
		os.Remove(path)
		return nil, sum, fmt.Errorf("%s: %w", path, err)
	}
	return payload, sum, nil
}

// WriteFile puts blob at path crash-safely: readers see the old file or
// the complete new one, never a torn write under path.
func WriteFile(path string, blob []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, TempPrefix+"*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		// The write error is the one worth reporting; cleanup is
		// best-effort by design.
		_ = tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if _, err := tmp.Write(blob); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	// Durability of the rename itself: fsync the directory. Best-effort
	// — some filesystems refuse directory fsync, and the entry is still
	// atomic without it.
	if dirF, err := os.Open(dir); err == nil {
		_ = dirF.Sync()
		_ = dirF.Close()
	}
	return nil
}

// Scan calls visit with the stem of every file in dir named
// <stem><suffix>, in sorted name order, and deletes the temp files of
// crashed writes. The sort is explicit so warm-start counts and any
// order-dependent bookkeeping never depend on the filesystem.
func Scan(dir, suffix string, visit func(stem string)) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	names := make([]string, 0, len(entries))
	for _, de := range entries {
		if !de.IsDir() {
			names = append(names, de.Name())
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if strings.HasPrefix(name, TempPrefix) {
			os.Remove(filepath.Join(dir, name))
			continue
		}
		if stem, ok := strings.CutSuffix(name, suffix); ok {
			visit(stem)
		}
	}
}
