// Package table is the columnar artifact layer: a read-only Table
// abstraction over typed rows, read front to back by one Scanner and
// sized by Len(Exact). Three implementations ship here: Resident (one
// struct-of-arrays Columns in memory, what Build and FromSlice
// produce), Held (one encoded stream decoded on first read), and
// Concat, which composes tables without copying.
//
// A table's content identity is its EncodeStream bytes: one Columns
// over every row in order, so two tables holding the same rows encode
// the same whatever their storage.
//
// Artifact bytes are a pure function of the rows and their order, never
// of how a table is stored or composed. Consumers follow one rule
// (DESIGN.md "Columnar artifact layer"): every consumer reads rows in
// order, through one scanner. Float addition is not associative, so a
// reduction that re-associated rows by part or by worker would make
// bytes depend on an execution knob.
//
// Tables are safe for concurrent scans once built.
package table

// CountMode controls the behavior of Table.Len.
type CountMode int

// Exact makes Len return the exact row count.
const Exact CountMode = 0

// Scanner iterates a table in row order. The zero-value pattern mirrors
// bufio.Scanner: Scan advances and reports whether a row is available,
// Row returns the current row, Err surfaces the first failure (a scan
// that hit an I/O or integrity error stops early).
type Scanner[T any] interface {
	Scan() bool
	Row() T
	Err() error
}

// Table is a read-only collection of rows. Scanner returns a fresh
// scan of every row in row order; Len(Exact) the row count, without
// reading the rows.
type Table[T any] interface {
	Scanner() Scanner[T]
	Len(mode CountMode) int
}

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
func (t *Resident[T]) Scanner() Scanner[T] {
	return &colScanner[T]{cols: t.cols, i: -1, n: t.cols.Len()}
}

// MemBytes estimates the table's resident heap bytes.
func (t *Resident[T]) MemBytes() int { return t.cols.MemBytes() }

// colScanner iterates the n rows of one Columns.
type colScanner[T any] struct {
	cols Columns[T]
	i    int
	n    int
}

func (s *colScanner[T]) Scan() bool {
	if s.i+1 >= s.n {
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
	c := &concatTable[T]{parts: parts}
	for _, p := range parts {
		c.n += p.Len(Exact)
	}
	return c
}

type concatTable[T any] struct {
	parts []Table[T]
	n     int // rows over every part
}

func (c *concatTable[T]) Len(CountMode) int { return c.n }

func (c *concatTable[T]) Scanner() Scanner[T] {
	return &concatScanner[T]{parts: c.parts}
}

// concatScanner scans each part in turn, and stops at the first part
// whose scan fails.
type concatScanner[T any] struct {
	parts []Table[T] // the parts not yet opened
	cur   Scanner[T]
	err   error
}

func (s *concatScanner[T]) Scan() bool {
	for s.err == nil {
		if s.cur != nil {
			if s.cur.Scan() {
				return true
			}
			if s.err = s.cur.Err(); s.err != nil {
				return false
			}
		}
		if len(s.parts) == 0 {
			return false
		}
		s.cur, s.parts = s.parts[0].Scanner(), s.parts[1:]
	}
	return false
}

func (s *concatScanner[T]) Row() T     { return s.cur.Row() }
func (s *concatScanner[T]) Err() error { return s.err }
