// Package table is the columnar artifact layer: a read-only Table
// abstraction over typed rows with range-sharded scanners, modeled on
// grailbio/gql's Scanner(start, limit, total) / Len(Exact) contract.
// Four implementations ship here — Slice (a thin view over an in-memory
// slice), Resident (one struct-of-arrays Columns in memory, what Build
// and FromSlice produce), Held (one encoded stream decoded on first
// read), and Concat, which composes tables without copying. Table is
// sealed to this package: all four scan through one primitive, an exact
// row window.
//
// A table's content identity is its EncodeStream bytes: one Columns
// over every row in order, so two tables holding the same rows encode
// the same whatever their storage.
//
// Artifact bytes are a pure function of the rows and their order, never
// of the shard count or of how a table is stored or composed. Consumers
// therefore follow one invariant (DESIGN.md "Columnar artifact layer"):
//
//   - Order-free aggregation (integer counts, set union, histograms,
//     collect-then-sort) may fan out over shard scanners, merging
//     partials in ascending shard order.
//   - Order-sensitive reductions (float folds) must stream a single
//     scanner in row order: float addition is not associative, so any
//     shard- or part-aligned re-association would make bytes depend on
//     an execution knob.
//
// Tables are safe for concurrent scans once built.
package table

// CountMode controls the behavior of Table.Len.
type CountMode int

// Exact makes Len return the exact row count.
const Exact CountMode = 0

// Scanner iterates one shard of a table in row order. The zero-value
// pattern mirrors bufio.Scanner: Scan advances and reports whether a row
// is available, Row returns the current row, Err surfaces the first
// failure (a scan that hit an I/O or integrity error stops early).
type Scanner[T any] interface {
	Scan() bool
	Row() T
	Err() error
}

// Table is a read-only collection of rows. Scanner returns the shard
// [start, limit) out of total, where [0, total) covers the whole table:
// Scanner(0, 1, 1) scans everything, Scanner(2, 3, 3) the last third.
// Shard boundaries are deterministic row ranges (row i belongs to shard
// s iff s*n/total <= i < (s+1)*n/total), so a fixed-order merge of shard
// partials is reproducible for any shard count.
//
// REQUIRES: 0 <= start <= limit <= total, total >= 1.
//
// rowScanner scans the exact row window [lo, hi): Scanner maps its
// shard to a window and opens it, and Concat routes a shard across its
// parts through it.
type Table[T any] interface {
	Scanner(start, limit, total int) Scanner[T]
	Len(mode CountMode) int
	rowScanner(lo, hi int) Scanner[T]
}

// ShardRange maps the shard [start, limit) of total onto concrete row
// indexes over n rows.
func ShardRange(start, limit, total, n int) (lo, hi int) {
	if total <= 0 || start < 0 || limit < start || limit > total {
		panic("table: invalid shard range")
	}
	return start * n / total, limit * n / total
}

// Slice is a Table over an in-memory slice. It is the bridge type:
// existing []T producers become tables without copying.
type Slice[T any] struct {
	rows []T
}

// NewSlice wraps rows (not copied; callers must not mutate).
func NewSlice[T any](rows []T) *Slice[T] {
	return &Slice[T]{rows: rows}
}

// Len implements Table.
func (s *Slice[T]) Len(CountMode) int { return len(s.rows) }

// Scanner implements Table.
func (s *Slice[T]) Scanner(start, limit, total int) Scanner[T] {
	lo, hi := ShardRange(start, limit, total, len(s.rows))
	return s.rowScanner(lo, hi)
}

func (s *Slice[T]) rowScanner(lo, hi int) Scanner[T] {
	return &sliceScanner[T]{rows: s.rows[lo:hi], i: -1}
}

type sliceScanner[T any] struct {
	rows []T
	i    int
}

func (s *sliceScanner[T]) Scan() bool {
	if s.i+1 >= len(s.rows) {
		return false
	}
	s.i++
	return true
}

func (s *sliceScanner[T]) Row() T     { return s.rows[s.i] }
func (s *sliceScanner[T]) Err() error { return nil }

// Resident is a Table over one Columns in memory: what Build and
// FromSlice produce, and what a decoded stream or a held table's first
// read becomes. Immutable once made, and safe for concurrent scans.
type Resident[T any] struct {
	cols Columns[T]
	// built marks columns this process appended from empty in row
	// order, as Build and FromSlice do: they are the Columns a re-append
	// of the rows would build, so a stream frames them as they are.
	built bool
}

// Build materializes a table from a row-producing callback, the common
// construction path: emit is called once with an append function.
// hint is the row count the columns are sized for: the expected count
// when it is known only roughly.
func Build[T any](codec Codec[T], hint int, emit func(appendRow func(T)) error) (*Resident[T], error) {
	cols := codec.NewColumns(hint)
	if err := emit(cols.Append); err != nil {
		return nil, err
	}
	return &Resident[T]{cols: cols, built: true}, nil
}

// FromSlice builds a resident table from rows.
func FromSlice[T any](codec Codec[T], rows []T) *Resident[T] {
	cols := codec.NewColumns(len(rows))
	for _, r := range rows {
		cols.Append(r)
	}
	return &Resident[T]{cols: cols, built: true}
}

// FromColumns wraps an already-materialized Columns as a read-only
// Table, without copying. The caller must not mutate cols afterwards.
func FromColumns[T any](cols Columns[T]) *Resident[T] {
	return &Resident[T]{cols: cols}
}

// Len implements Table.
func (t *Resident[T]) Len(CountMode) int { return t.cols.Len() }

// Scanner implements Table.
func (t *Resident[T]) Scanner(start, limit, total int) Scanner[T] {
	lo, hi := ShardRange(start, limit, total, t.cols.Len())
	return t.rowScanner(lo, hi)
}

func (t *Resident[T]) rowScanner(lo, hi int) Scanner[T] {
	return &colScanner[T]{cols: t.cols, i: lo - 1, hi: hi}
}

// MemBytes estimates the table's resident heap bytes.
func (t *Resident[T]) MemBytes() int { return t.cols.MemBytes() }

// colScanner iterates rows (i, hi) of one Columns.
type colScanner[T any] struct {
	cols Columns[T]
	i    int
	hi   int
}

func (s *colScanner[T]) Scan() bool {
	if s.i+1 >= s.hi {
		return false
	}
	s.i++
	return true
}

func (s *colScanner[T]) Row() T     { return s.cols.Row(s.i) }
func (s *colScanner[T]) Err() error { return nil }

// Concat composes tables into one logical table — parts in the given
// order, no copying. It is how per-year (and per-replica) job tables
// become the whole-trace table: the merge is a fixed part order, so
// bytes cannot depend on which stage finished first.
func Concat[T any](parts ...Table[T]) Table[T] {
	c := &concatTable[T]{parts: parts, offs: make([]int, len(parts)+1)}
	for i, p := range parts {
		c.offs[i+1] = c.offs[i] + p.Len(Exact)
	}
	return c
}

type concatTable[T any] struct {
	parts []Table[T]
	offs  []int // offs[i] = first global row of part i; offs[len] = total
}

func (c *concatTable[T]) Len(CountMode) int { return c.offs[len(c.parts)] }

func (c *concatTable[T]) Scanner(start, limit, total int) Scanner[T] {
	lo, hi := ShardRange(start, limit, total, c.Len(Exact))
	return c.rowScanner(lo, hi)
}

func (c *concatTable[T]) rowScanner(lo, hi int) Scanner[T] {
	return &concatScanner[T]{c: c, hi: hi, pos: lo, part: -1}
}

type concatScanner[T any] struct {
	c    *concatTable[T]
	hi   int
	pos  int
	part int
	cur  Scanner[T]
	err  error
}

func (s *concatScanner[T]) Scan() bool {
	if s.err != nil || s.pos >= s.hi {
		return false
	}
	for {
		if s.cur != nil && s.cur.Scan() {
			s.pos++
			return true
		}
		if s.cur != nil {
			if err := s.cur.Err(); err != nil {
				s.err = err
				return false
			}
		}
		// Advance to the part containing s.pos.
		s.part++
		for s.part < len(s.c.parts) && s.c.offs[s.part+1] <= s.pos {
			s.part++
		}
		if s.part >= len(s.c.parts) {
			return false
		}
		plo := s.pos - s.c.offs[s.part]
		phi := s.c.parts[s.part].Len(Exact)
		if end := s.hi - s.c.offs[s.part]; end < phi {
			phi = end
		}
		s.cur = s.c.parts[s.part].rowScanner(plo, phi)
	}
}

func (s *concatScanner[T]) Row() T {
	var zero T
	if s.cur == nil {
		return zero
	}
	return s.cur.Row()
}

func (s *concatScanner[T]) Err() error { return s.err }
