package table

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/durable"
)

// Options tunes execution of a Batches table. Every knob here is an
// execution detail: none may influence artifact bytes (the shard-count
// equivalence test pins this).
type Options struct {
	// BatchSize is rows per column batch (default 8192).
	BatchSize int
	// SpillDir, when set, lets batches spill to disk under the given
	// directory using the crash-safe format in spill.go. Empty
	// means fully resident. The directory must be private to one table.
	// Deliberately explicit — pipeline code may not consult the
	// environment (rngpurity), so there is no os.TempDir fallback.
	SpillDir string
	// Resident caps in-memory batches while building and scanning once
	// SpillDir is set (default 4; minimum 2 so a scanner can hold the
	// current batch and prefetch the next).
	Resident int
}

func (o Options) withDefaults() Options {
	if o.BatchSize <= 0 {
		o.BatchSize = 8192
	}
	if o.Resident < 2 {
		o.Resident = 4
	}
	return o
}

// batch is one column batch: resident (cols != nil), spilled (cols ==
// nil, on disk at spillPath), or both.
type batch[T any] struct {
	rows int
	cols Columns[T] // nil when evicted to disk
}

// Batches is a Table backed by a sequence of column batches. Built once
// through a Builder, then immutable and safe for concurrent scans.
//
// Memory model: with SpillDir unset all batches stay resident (still a
// large win over []T — columnar layout drops per-row string headers via
// dictionaries). With SpillDir set, at most Options.Resident batches
// are resident per table during the build, and scans materialize
// spilled batches on demand with one-batch lookahead prefetch,
// re-evicting behind the cursor. Peak memory is then O(BatchSize ×
// resident cap), independent of row count — the property the 100×/1000×
// trace runs rely on.
type Batches[T any] struct {
	codec Codec[T]
	opt   Options
	total int

	mu       sync.Mutex
	batches  []batch[T]
	resident int // count of batches with cols != nil

	// rebuild recomputes rows [lo, hi) into a fresh Columns when a
	// spill file fails its integrity check. Deterministic generators
	// make this exact: recomputed rows are byte-identical, so a corrupt
	// spill can never change artifact bytes — only cost time.
	rebuild func(lo, hi int, into Columns[T]) error
}

// Builder accumulates rows into a Batches table. Not safe for
// concurrent use; call Finish exactly once.
type Builder[T any] struct {
	t   *Batches[T]
	cur Columns[T]
	err error
}

// NewBuilder returns a builder writing batches under the given options.
func NewBuilder[T any](codec Codec[T], opt Options) *Builder[T] {
	t := &Batches[T]{codec: codec, opt: opt.withDefaults()}
	return &Builder[T]{t: t, cur: codec.NewColumns()}
}

// Append adds one row. Errors from spilling are deferred to Finish so
// hot loops stay branch-light.
func (b *Builder[T]) Append(row T) {
	b.cur.Append(row)
	b.t.total++
	if b.cur.Len() >= b.t.opt.BatchSize {
		b.cut()
	}
}

// cut seals the current batch and starts a new one.
func (b *Builder[T]) cut() {
	if b.cur.Len() == 0 {
		return
	}
	b.t.batches = append(b.t.batches, batch[T]{rows: b.cur.Len(), cols: b.cur})
	b.t.resident++
	b.cur = b.t.codec.NewColumns()
	if b.t.opt.SpillDir != "" && b.t.resident > b.t.opt.Resident {
		// Evict the oldest still-resident batch: the build writes
		// forward, so older batches are the coldest.
		for bi := range b.t.batches {
			if b.t.batches[bi].cols != nil {
				if err := writeSpill(b.t.opt.SpillDir, bi, b.t.batches[bi].cols); err != nil {
					if b.err == nil {
						b.err = err
					}
					return // keep resident; surface at Finish
				}
				b.t.batches[bi].cols = nil
				b.t.resident--
				break
			}
		}
	}
}

// Err reports the first deferred build error.
func (b *Builder[T]) Err() error { return b.err }

// Finish seals the table. The builder must not be reused.
func (b *Builder[T]) Finish() (*Batches[T], error) {
	b.cut()
	if b.err != nil {
		return nil, b.err
	}
	t := b.t
	b.t, b.cur = nil, nil
	return t, nil
}

// SetRebuild installs the deterministic recompute hook used when a
// spill file fails integrity checks. rebuild must append exactly rows
// [lo, hi) of the table, in order, into the supplied Columns.
func (t *Batches[T]) SetRebuild(rebuild func(lo, hi int, into Columns[T]) error) {
	t.rebuild = rebuild
}

// Len implements Table.
func (t *Batches[T]) Len(CountMode) int { return t.total }

// Scanner implements Table.
func (t *Batches[T]) Scanner(start, limit, total int) Scanner[T] {
	lo, hi := ShardRange(start, limit, total, t.total)
	return t.rowScanner(lo, hi)
}

// batchStart returns the first global row index of batch bi.
func (t *Batches[T]) batchStart(bi int) int {
	// Batches are all full (BatchSize rows) except the last, so the
	// prefix sum is closed-form for bi < len; fall back to the generic
	// walk only if that invariant ever changes.
	if bi <= 0 {
		return 0
	}
	off := 0
	for i := 0; i < bi; i++ {
		off += t.batches[i].rows
	}
	return off
}

// materialize returns the resident Columns for batch bi, loading (and
// verifying) the spill file if needed, rebuilding on corruption.
// Callers on the scan path pass evictBehind >= 0 to re-evict already
// spilled batches before that index once over the residency cap.
func (t *Batches[T]) materialize(bi int) (Columns[T], error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.materializeLocked(bi)
}

func (t *Batches[T]) materializeLocked(bi int) (Columns[T], error) {
	b := &t.batches[bi]
	if b.cols != nil {
		return b.cols, nil
	}
	cols := t.codec.NewColumns()
	err := readSpill(t.opt.SpillDir, bi, b.rows, cols)
	if err != nil {
		if !errors.Is(err, durable.ErrCorrupt) || t.rebuild == nil {
			return nil, err
		}
		// Corrupt spill: recompute deterministically and rewrite the
		// file. Rows come back identical, so bytes cannot change.
		lo := t.batchStart(bi)
		cols = t.codec.NewColumns()
		if rerr := t.rebuild(lo, lo+b.rows, cols); rerr != nil {
			return nil, fmt.Errorf("%v; rebuild failed: %w", err, rerr)
		}
		if cols.Len() != b.rows {
			return nil, fmt.Errorf("%v; rebuild returned %d rows, want %d", err, cols.Len(), b.rows)
		}
		if werr := writeSpill(t.opt.SpillDir, bi, cols); werr != nil {
			return nil, fmt.Errorf("%v; rewrite failed: %w", err, werr)
		}
	}
	b.cols = cols
	t.resident++
	t.evictColdLocked(bi)
	return cols, nil
}

// evictColdLocked drops resident batches other than keep back to disk
// presence only (their spill files already exist) while over the cap.
func (t *Batches[T]) evictColdLocked(keep int) {
	if t.opt.SpillDir == "" {
		return
	}
	for bi := range t.batches {
		if t.resident <= t.opt.Resident {
			return
		}
		if bi == keep || t.batches[bi].cols == nil {
			continue
		}
		// Only drop batches that are safely on disk; batches never
		// spilled during the build stay resident.
		if !spillExists(t.opt.SpillDir, bi) {
			continue
		}
		t.batches[bi].cols = nil
		t.resident--
	}
}

func (t *Batches[T]) rowScanner(lo, hi int) Scanner[T] {
	return &batchScanner[T]{t: t, pos: lo, hi: hi, bi: -1}
}

// batchScanner iterates rows [pos, hi) across batches, materializing
// spilled batches on demand and prefetching the next one in the
// background while the caller consumes the current batch.
type batchScanner[T any] struct {
	t   *Batches[T]
	pos int // next global row to deliver
	hi  int
	bi  int // current batch index, -1 before first Scan
	off int // global row index of batches[bi][0]
	i   int // index within current batch of the current row
	cur Columns[T]
	err error

	prefetchBi int // batch index the prefetch targets, 0 = none
	prefetchCh chan prefetched[T]
}

type prefetched[T any] struct {
	bi   int
	cols Columns[T]
	err  error
}

func (s *batchScanner[T]) Scan() bool {
	if s.err != nil || s.pos >= s.hi {
		return false
	}
	if s.bi >= 0 && s.pos-s.off < s.t.batches[s.bi].rows {
		// Fast path: next row is in the current batch.
		s.i = s.pos - s.off
		s.pos++
		return true
	}
	// Locate the batch containing s.pos.
	bi, off := s.bi, s.off
	if bi < 0 {
		bi, off = 0, 0
	}
	for bi < len(s.t.batches) && off+s.t.batches[bi].rows <= s.pos {
		off += s.t.batches[bi].rows
		bi++
	}
	if bi >= len(s.t.batches) {
		return false
	}
	cols, err := s.fetch(bi)
	if err != nil {
		s.err = err
		return false
	}
	s.bi, s.off, s.cur = bi, off, cols
	s.i = s.pos - off
	s.pos++
	// Kick off prefetch of the next batch if the scan will reach it.
	if next := bi + 1; next < len(s.t.batches) && off+s.t.batches[bi].rows < s.hi &&
		s.t.opt.SpillDir != "" && s.prefetchBi != next+1 {
		s.startPrefetch(next)
	}
	return true
}

// fetch returns batch bi's columns, consuming a matching prefetch
// result when one is in flight.
func (s *batchScanner[T]) fetch(bi int) (Columns[T], error) {
	if s.prefetchCh != nil {
		p := <-s.prefetchCh
		s.prefetchCh = nil
		s.prefetchBi = 0
		if p.bi == bi {
			if p.err != nil {
				return nil, p.err
			}
			return p.cols, nil
		}
		// Stale prefetch (shard boundary skipped a batch): discard.
	}
	return s.t.materialize(bi)
}

func (s *batchScanner[T]) startPrefetch(bi int) {
	ch := make(chan prefetched[T], 1) // buffered: goroutine never blocks
	s.prefetchCh = ch
	s.prefetchBi = bi + 1
	go func() {
		cols, err := s.t.materialize(bi)
		ch <- prefetched[T]{bi: bi, cols: cols, err: err}
	}()
}

func (s *batchScanner[T]) Row() T {
	var zero T
	if s.cur == nil {
		return zero
	}
	return s.cur.Row(s.i)
}

func (s *batchScanner[T]) Err() error { return s.err }

// MemBytes estimates current resident heap usage of the table.
func (t *Batches[T]) MemBytes() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, b := range t.batches {
		if b.cols != nil {
			n += b.cols.MemBytes()
		}
	}
	return n
}

// Build materializes a table from a row-producing callback, the common
// construction path: emit is called once with an append function.
func Build[T any](codec Codec[T], opt Options, emit func(appendRow func(T)) error) (*Batches[T], error) {
	b := NewBuilder(codec, opt)
	if err := emit(b.Append); err != nil {
		return nil, err
	}
	return b.Finish()
}

// FromSlice builds a Batches table from rows.
func FromSlice[T any](codec Codec[T], opt Options, rows []T) (*Batches[T], error) {
	return Build(codec, opt, func(appendRow func(T)) error {
		for _, r := range rows {
			appendRow(r)
		}
		return nil
	})
}
