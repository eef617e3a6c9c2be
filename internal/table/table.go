// Package table is the columnar streaming artifact layer: a read-only
// Table abstraction over typed rows with range-sharded scanners, modeled
// on grailbio/gql's Scanner(start, limit, total) / Len(Exact) /
// Hash() contract. Two implementations ship here — Slice (a thin view
// over an in-memory slice) and Batches (struct-of-arrays column batches
// with lazy materialization, background prefetch, and crash-safe
// spill-to-disk) — plus Concat, which composes tables without copying.
//
// The layer exists to make the determinism contract a scaling mechanism:
// artifact bytes are a pure function of the rows and their order, never
// of batch size, shard count, residency, or spill timing. Consumers
// therefore follow one invariant (DESIGN.md "Columnar artifact layer"):
//
//   - Order-free aggregation (integer counts, set union, histograms,
//     collect-then-sort) may fan out over shard scanners, merging
//     partials in ascending shard order.
//   - Order-sensitive reductions (float folds) must stream a single
//     scanner in row order: float addition is not associative, so any
//     shard- or batch-aligned re-association would make bytes depend on
//     an execution knob.
//
// Tables are safe for concurrent scans once built; builders are not.
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
// Hash is a content hash over the rows in row order — independent of
// batch size, shard count, and storage (memory vs spill). Two tables
// hash equal iff they hold identical rows in identical order.
type Table[T any] interface {
	Scanner(start, limit, total int) Scanner[T]
	Len(mode CountMode) int
	Hash() (uint64, error)
}

// ShardRange maps the shard [start, limit) of total onto concrete row
// indexes over n rows.
func ShardRange(start, limit, total, n int) (lo, hi int) {
	if total <= 0 || start < 0 || limit < start || limit > total {
		panic("table: invalid shard range")
	}
	return start * n / total, limit * n / total
}

// rowRanger is the internal seam composing tables in this package:
// scanning an exact row window, not a shard of the whole. All tables
// here implement it; Concat uses it to route a shard across parts.
type rowRanger[T any] interface {
	rowScanner(lo, hi int) Scanner[T]
}

// rowsIn returns a scanner over rows [lo, hi) of t, using the exact
// window when t supports it and a skip-scan otherwise.
func rowsIn[T any](t Table[T], lo, hi int) Scanner[T] {
	if rr, ok := t.(rowRanger[T]); ok {
		return rr.rowScanner(lo, hi)
	}
	return &skipScanner[T]{inner: t.Scanner(0, 1, 1), lo: lo, hi: hi}
}

// skipScanner adapts a whole-table scanner to a row window for foreign
// Table implementations.
type skipScanner[T any] struct {
	inner Scanner[T]
	lo    int
	hi    int
	pos   int
}

func (s *skipScanner[T]) Scan() bool {
	for s.pos < s.lo {
		if !s.inner.Scan() {
			return false
		}
		s.pos++
	}
	if s.pos >= s.hi {
		return false
	}
	if !s.inner.Scan() {
		return false
	}
	s.pos++
	return true
}

func (s *skipScanner[T]) Row() T     { return s.inner.Row() }
func (s *skipScanner[T]) Err() error { return s.inner.Err() }

// fnv1aInit and fnv1aMix implement the 64-bit FNV-1a chain used for
// row-order content hashes.
const (
	fnv1aInit  = 14695981039346656037
	fnv1aPrime = 1099511628211
)

func fnv1aMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnv1aPrime
		v >>= 8
	}
	return h
}

// HashRows chains hashRow over every row in order: the canonical
// content hash implementation shared by the Table types here.
func HashRows[T any](t Table[T], hashRow func(T) uint64) (uint64, error) {
	h := uint64(fnv1aInit)
	sc := t.Scanner(0, 1, 1)
	for sc.Scan() {
		h = fnv1aMix(h, hashRow(sc.Row()))
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return h, nil
}

// Slice is a Table over an in-memory slice. It is the bridge type:
// existing []T producers become tables without copying.
type Slice[T any] struct {
	rows    []T
	hashRow func(T) uint64
}

// NewSlice wraps rows (not copied; callers must not mutate) with the
// given per-row hash.
func NewSlice[T any](rows []T, hashRow func(T) uint64) *Slice[T] {
	return &Slice[T]{rows: rows, hashRow: hashRow}
}

// Len implements Table.
func (s *Slice[T]) Len(CountMode) int { return len(s.rows) }

// Hash implements Table.
func (s *Slice[T]) Hash() (uint64, error) { return HashRows[T](s, s.hashRow) }

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

func (c *concatTable[T]) Hash() (uint64, error) {
	// Chain the part hashes in part order; identical parts in identical
	// order hash equal regardless of how rows are batched inside.
	h := uint64(fnv1aInit)
	for _, p := range c.parts {
		ph, err := p.Hash()
		if err != nil {
			return 0, err
		}
		h = fnv1aMix(h, ph)
	}
	return h, nil
}

func (c *concatTable[T]) Scanner(start, limit, total int) Scanner[T] {
	lo, hi := ShardRange(start, limit, total, c.Len(Exact))
	return c.rowScanner(lo, hi)
}

func (c *concatTable[T]) rowScanner(lo, hi int) Scanner[T] {
	return &concatScanner[T]{c: c, lo: lo, hi: hi, pos: lo, part: -1}
}

type concatScanner[T any] struct {
	c    *concatTable[T]
	lo   int
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
		s.cur = rowsIn(s.c.parts[s.part], plo, phi)
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
