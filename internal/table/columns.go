package table

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
)

// Columns is a struct-of-arrays buffer for rows of type T: one growable
// column per field rather than a slice of structs. A Columns value is
// what a resident table holds and what a stream encodes. Implementations
// live next to their row types (trace.JobColumns, modlog.EventColumns,
// survey.ResponseColumns) so field layout stays with field knowledge.
//
// EncodeTo/DecodeFrom must round-trip exactly: Decode(Encode(c)) yields
// identical rows in identical order. The wire layout may exploit the
// whole column (dictionaries, deltas), which is why a table's content
// identity is EncodeStream's one Columns appended over all its rows,
// never the encoding of whatever decoded Columns it stores. EncodeTo
// only reads: a resident table's Columns is shared by its scans and
// encodes.
type Columns[T any] interface {
	Append(row T)
	Len() int
	Row(i int) T
	EncodeTo(w *Writer) error
	DecodeFrom(r *Reader) error
	// MemBytes estimates resident heap bytes for Resident.MemBytes. An
	// estimate: never artifact-bearing.
	MemBytes() int
}

// Codec binds a row type to its columnar representation.
type Codec[T any] interface {
	// NewColumns returns empty columns with room for n rows, so a build
	// whose row count is known or tightly expected fills them without
	// regrowing. n sizes capacity only, never bytes; 0 sizes nothing.
	NewColumns(n int) Columns[T]
}

// maxString bounds one length-prefixed string on the wire, in both
// directions: a writer refuses to emit what a reader would refuse.
const maxString = 1 << 24

// Writer appends the varint-oriented primitives column encoders use to
// a byte slice. Errors are sticky; check Err once at the end.
type Writer struct {
	buf []byte
	err error
}

// NewWriter returns a Writer that appends to buf (nil starts empty).
func NewWriter(buf []byte) *Writer { return &Writer{buf: buf} }

// Bytes returns everything written so far.
func (w *Writer) Bytes() []byte { return w.buf }

// Reset empties w and clears its error, keeping its buffer for reuse.
func (w *Writer) Reset() { w.buf, w.err = w.buf[:0], nil }

// Err returns the first encoding error.
func (w *Writer) Err() error { return w.err }

// Raw writes raw bytes.
func (w *Writer) Raw(p []byte) { w.buf = append(w.buf, p...) }

// Uvarint writes an unsigned varint.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

// Varint writes a signed (zig-zag) varint.
func (w *Writer) Varint(v int64) { w.buf = binary.AppendVarint(w.buf, v) }

// Float64 writes a float bit pattern (fixed 8 bytes, little-endian), so
// floats round-trip bit-exactly including negative zero and NaN payloads.
func (w *Writer) Float64(f float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(f))
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	if len(s) > maxString {
		if w.err == nil {
			w.err = fmt.Errorf("table: string length %d exceeds sanity bound", len(s))
		}
		return
	}
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader decodes what a Writer wrote, in place from a byte slice. It
// knows how many bytes are unread, which bounds every decoded count and
// length. Errors are sticky: after the first, every read returns zero.
// Nothing a Reader returns aliases its input except Raw's slices, so a
// decoded value owns its memory.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over buf.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Err returns the first read error.
func (r *Reader) Err() error { return r.err }

// Fail records err as the reader's error unless one is already set, for
// decoders that detect damage the reader itself cannot see.
func (r *Reader) Fail(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// varintErr is Fail's argument for a varint that ends early (n == 0)
// or overflows 64 bits (n < 0), as binary.Uvarint and Varint report.
func varintErr(n int) error {
	if n == 0 {
		return io.ErrUnexpectedEOF
	}
	return errors.New("table: varint overflows a 64-bit integer")
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.Fail(varintErr(n))
		return 0
	}
	r.off += n
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.Fail(varintErr(n))
		return 0
	}
	r.off += n
	return v
}

// Float64 reads a fixed 8-byte float bit pattern.
func (r *Reader) Float64() float64 {
	p := r.Raw(8)
	if p == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(p))
}

// String reads a length-prefixed string into memory of its own.
func (r *Reader) String() string { return string(r.stringBytes()) }

// stringBytes reads a length-prefixed string in place.
func (r *Reader) stringBytes() []byte {
	n := r.Uvarint()
	if r.err != nil {
		return nil
	}
	if n > maxString {
		r.Fail(fmt.Errorf("table: string length %d exceeds sanity bound", n))
		return nil
	}
	return r.Raw(int(n))
}

// Raw reads the next n bytes. The slice aliases the reader's input: a
// decoder copies what it keeps. A claim past the unread bytes fails the
// reader and returns nil.
func (r *Reader) Raw(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.Len() {
		r.Fail(fmt.Errorf("table: %d bytes claimed, %d unread: %w", n, r.Len(), io.ErrUnexpectedEOF))
		return nil
	}
	p := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return p
}

// Count reads an element count for elements that each take at least
// minSize bytes on the wire. A count the unread bytes cannot hold comes
// only from a damaged or hostile input: it fails the reader and reads
// as 0, so a decoder that sizes its columns by the count allocates in
// proportion to its input.
func (r *Reader) Count(what string, minSize int) int {
	n := r.Uvarint()
	if left := r.Len(); r.err == nil && n > uint64(left/minSize) {
		r.Fail(fmt.Errorf("table: %d %s claimed, more than the %d unread bytes hold", n, what, left))
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}

// Resize returns s with length n, reusing its array when that holds n:
// a column decoder sizes each column once from its decoded count.
func Resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// Dict interns the strings of one low-cardinality column (users,
// accounts, partitions, states, languages, modules): values are stored
// once, rows store uint32 codes. Codes are assigned in first-appearance
// order, so encoding is a pure function of the row stream.
type Dict struct {
	vals []string
	idx  map[string]uint32
}

// Code interns s and returns its code.
func (d *Dict) Code(s string) uint32 {
	if c, ok := d.idx[s]; ok {
		return c
	}
	if d.idx == nil {
		d.idx = make(map[string]uint32)
	}
	c := uint32(len(d.vals))
	d.vals = append(d.vals, s)
	d.idx[s] = c
	return c
}

// Value returns the string for a code.
func (d *Dict) Value(c uint32) string { return d.vals[c] }

// Len returns the number of distinct values.
func (d *Dict) Len() int { return len(d.vals) }

// Reset clears the dictionary for reuse by a decode.
func (d *Dict) Reset() {
	d.vals = d.vals[:0]
	for k := range d.idx {
		delete(d.idx, k)
	}
}

// MemBytes estimates resident size.
func (d *Dict) MemBytes() int {
	n := 0
	for _, v := range d.vals {
		n += len(v) + 48 // string bytes + header + map entry overhead
	}
	return n
}

// Check refuses a code with no entry in d, which Value would panic on.
func (d *Dict) Check(codes []uint32) error {
	for _, c := range codes {
		if int(c) >= len(d.vals) {
			return fmt.Errorf("dictionary code %d outside its %d entries", c, len(d.vals))
		}
	}
	return nil
}

// EncodeTo writes the value table in code order.
func (d *Dict) EncodeTo(w *Writer) {
	w.Uvarint(uint64(len(d.vals)))
	for _, v := range d.vals {
		w.String(v)
	}
}

// DecodeFrom reads a value table written by EncodeTo.
func (d *Dict) DecodeFrom(r *Reader) {
	n := dictLen(r)
	d.Reset()
	for i := 0; i < n; i++ {
		s := r.String()
		if r.Err() != nil {
			return
		}
		d.Code(s)
	}
}

// SkipDict reads past a value table written by Dict.EncodeTo without
// decoding it, failing r wherever Dict.DecodeFrom would.
func SkipDict(r *Reader) {
	n := dictLen(r)
	for i := 0; i < n && r.Err() == nil; i++ {
		r.stringBytes()
	}
}

// dictLen reads a value table's entry count.
func dictLen(r *Reader) int {
	n := r.Count("dictionary entries", 1)
	if n > 1<<22 {
		r.Fail(fmt.Errorf("table: dict size %d exceeds sanity bound", n))
		return 0
	}
	return n
}
