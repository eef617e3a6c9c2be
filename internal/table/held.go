package table

import (
	"errors"
	"fmt"
	"sync"
)

// Held tables: one EncodeStream envelope kept as bytes until something
// reads its rows. A stage-cache hit hands out a shared, read-only
// payload; most readers of a restored run never scan most of its
// tables, so a held table verifies the envelope at once, answers
// Len(Exact) from it, and decodes its columns only on first read.

// HoldCodec is a Codec whose columns state their row count ahead of the
// rows, so a held table knows its length before it decodes.
type HoldCodec[T any] interface {
	Codec[T]
	// DecodeLen reads what the codec's Columns.EncodeTo wrote, up to and
	// including the row count, and returns that count: the length
	// DecodeFrom decodes when it succeeds. It skips what comes before the
	// count without decoding it, and fails r wherever DecodeFrom would.
	DecodeLen(r *Reader) int
}

// Held is a Table over one EncodeStream envelope that decodes its
// columns once, on the first Scanner or Load, and then drops the
// envelope. Safe for concurrent use.
type Held[T any] struct {
	codec Codec[T]
	rows  int
	redo  func() (Table[T], error)

	once    sync.Once
	payload []byte // the verified column bytes, until the first read
	tab     Table[T]
	err     error
}

// Hold runs DecodeStream's envelope checks on data now and reads the
// columns' own row count, which must match the header's: Len(Exact)
// then answers with the count the decode produces, without decoding.
// data must stay unmodified; the table keeps a reference to it until
// its first read. A first read whose decode fails calls redo for the
// rows instead, which must return as many as the envelope holds; with a
// nil redo the failure surfaces as the read's error. Envelope failures
// return *IntegrityError.
func Hold[T any](data []byte, codec HoldCodec[T], redo func() (Table[T], error)) (*Held[T], error) {
	rows, payload, err := openStream(data)
	if err != nil {
		return nil, err
	}
	r := NewReader(payload)
	n := codec.DecodeLen(r)
	if err := r.Err(); err != nil {
		return nil, &IntegrityError{Reason: fmt.Sprintf("decode: %v", err)}
	}
	if uint64(n) != rows {
		return nil, &IntegrityError{Reason: fmt.Sprintf("row count %d, header says %d", n, rows)}
	}
	return &Held[T]{codec: codec, rows: n, redo: redo, payload: payload}, nil
}

// Load decodes the columns unless a read already has, and returns the
// error every read of the table reports.
func (h *Held[T]) Load() error {
	h.once.Do(func() {
		// The error set first is what a panicking redo leaves.
		h.err = errors.New("table: recomputing a held table panicked")
		cols, err := h.decode()
		h.payload = nil
		switch {
		case err == nil:
			h.tab, h.err = FromColumns(cols), nil
		case h.redo == nil:
			h.err = err
		default:
			tab, rerr := h.redo()
			if rerr == nil && tab.Len(Exact) != h.rows {
				rerr = fmt.Errorf("%d rows, want %d", tab.Len(Exact), h.rows)
			}
			if rerr != nil {
				h.err = fmt.Errorf("%w; recompute: %w", err, rerr)
				return
			}
			h.tab, h.err = tab, nil
		}
	})
	return h.err
}

// decode decodes the held columns. A panic, which the fuzzed decoders
// must never raise, fails the decode like damage would.
func (h *Held[T]) decode() (cols Columns[T], err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &IntegrityError{Reason: fmt.Sprintf("decode panicked: %v", p)}
		}
	}()
	return decodeColumns(h.payload, uint64(h.rows), h.codec)
}

// Len implements Table.
func (h *Held[T]) Len(CountMode) int { return h.rows }

// Scanner implements Table: it loads the columns, then scans them.
func (h *Held[T]) Scanner() Scanner[T] {
	if err := h.Load(); err != nil {
		return errScanner[T]{err}
	}
	return h.tab.Scanner()
}

// errScanner is the scanner of a table whose rows cannot be read.
type errScanner[T any] struct{ err error }

func (errScanner[T]) Scan() bool { return false }

func (errScanner[T]) Row() T {
	var zero T
	return zero
}

func (s errScanner[T]) Err() error { return s.err }
