package table

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Columns is a struct-of-arrays buffer for rows of type T: one growable
// column per field rather than a slice of structs. A Columns value is
// the unit of batching, encoding, and spill. Implementations live next
// to their row types (trace.JobColumns, modlog.EventColumns,
// survey.ResponseColumns) so field layout stays with field knowledge.
//
// EncodeTo/DecodeFrom must round-trip exactly: Decode(Encode(c)) yields
// identical rows in identical order. The wire layout may exploit the
// batch (dictionaries, deltas), which is why content hashes are defined
// over rows, never over encoded batch payloads.
type Columns[T any] interface {
	Append(row T)
	Len() int
	Row(i int) T
	Reset()
	EncodeTo(w *Writer) error
	DecodeFrom(r *Reader) error
	// MemBytes estimates resident heap bytes, used by the residency
	// policy to decide when to spill. An estimate: never artifact-bearing.
	MemBytes() int
}

// Codec binds a row type to its columnar representation and content
// hash. HashRow must depend on every field that reaches an artifact.
type Codec[T any] interface {
	NewColumns() Columns[T]
	HashRow(row T) uint64
}

// Writer wraps an io.Writer with the varint-oriented primitives column
// encoders use. Errors are sticky; check Err once at the end.
type Writer struct {
	w       io.Writer
	scratch [binary.MaxVarintLen64]byte
	err     error
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the first write error.
func (w *Writer) Err() error { return w.err }

// Bytes writes raw bytes.
func (w *Writer) Bytes(p []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(p)
}

// Uvarint writes an unsigned varint.
func (w *Writer) Uvarint(v uint64) {
	n := binary.PutUvarint(w.scratch[:], v)
	w.Bytes(w.scratch[:n])
}

// Varint writes a signed (zig-zag) varint.
func (w *Writer) Varint(v int64) {
	n := binary.PutVarint(w.scratch[:], v)
	w.Bytes(w.scratch[:n])
}

// Float64 writes a float bit pattern (fixed 8 bytes, little-endian), so
// floats round-trip bit-exactly including negative zero and NaN payloads.
func (w *Writer) Float64(f float64) {
	binary.LittleEndian.PutUint64(w.scratch[:8], math.Float64bits(f))
	w.Bytes(w.scratch[:8])
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Uvarint(uint64(len(s)))
	if w.err == nil {
		_, w.err = io.WriteString(w.w, s)
	}
}

// Reader is the decoding counterpart of Writer.
type Reader struct {
	r   io.ByteReader
	err error
}

// byteAndBlockReader is what Reader actually needs for string payloads.
type byteAndBlockReader interface {
	io.ByteReader
	io.Reader
}

// NewReader returns a Reader over r. r must also implement io.Reader
// (bufio.Reader and bytes.Reader both do).
func NewReader(r byteAndBlockReader) *Reader { return &Reader{r: r} }

// Err returns the first read error.
func (r *Reader) Err() error { return r.err }

// Fail records err as the reader's error unless one is already set, for
// decoders that detect damage the reader itself cannot see.
func (r *Reader) Fail(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadUvarint(r.r)
	r.Fail(err)
	return v
}

// Varint reads a signed varint.
func (r *Reader) Varint() int64 {
	if r.err != nil {
		return 0
	}
	v, err := binary.ReadVarint(r.r)
	r.Fail(err)
	return v
}

// Float64 reads a fixed 8-byte float bit pattern.
func (r *Reader) Float64() float64 {
	var buf [8]byte
	r.full(buf[:])
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Uvarint()
	if r.err != nil {
		return ""
	}
	if n > 1<<24 {
		r.Fail(fmt.Errorf("table: string length %d exceeds sanity bound", n))
		return ""
	}
	// An in-memory source (bytes.Reader, strings.Reader) knows how much
	// is left: a longer claim is damage, refused before the make.
	if src, ok := r.r.(interface{ Len() int }); ok && n > uint64(src.Len()) {
		r.Fail(fmt.Errorf("table: string length %d exceeds the %d unread bytes", n, src.Len()))
		return ""
	}
	buf := make([]byte, n)
	r.full(buf)
	return string(buf)
}

func (r *Reader) full(p []byte) {
	if r.err != nil {
		return
	}
	br, ok := r.r.(io.Reader)
	if !ok {
		r.Fail(fmt.Errorf("table: reader lacks block reads"))
		return
	}
	_, err := io.ReadFull(br, p)
	r.Fail(err)
}

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

// Reset clears the dictionary for batch reuse.
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

// EncodeTo writes the value table in code order.
func (d *Dict) EncodeTo(w *Writer) {
	w.Uvarint(uint64(len(d.vals)))
	for _, v := range d.vals {
		w.String(v)
	}
}

// DecodeFrom reads a value table written by EncodeTo.
func (d *Dict) DecodeFrom(r *Reader) {
	n := r.Uvarint()
	if r.Err() != nil {
		return
	}
	if n > 1<<22 {
		r.Fail(fmt.Errorf("table: dict size %d exceeds sanity bound", n))
		return
	}
	d.Reset()
	for i := uint64(0); i < n; i++ {
		s := r.String()
		if r.Err() != nil {
			return
		}
		d.Code(s)
	}
}

// HashString folds a string into the FNV-1a row-hash convention. The
// length is mixed first so concatenations can't collide field-wise.
func HashString(h uint64, s string) uint64 {
	h = fnv1aMix(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnv1aPrime
	}
	return h
}

// HashUint64 folds an integer into a row hash.
func HashUint64(h, v uint64) uint64 { return fnv1aMix(h, v) }

// HashInt64 folds a signed integer into a row hash.
func HashInt64(h uint64, v int64) uint64 { return fnv1aMix(h, uint64(v)) }

// HashFloat64 folds a float's bit pattern into a row hash.
func HashFloat64(h uint64, f float64) uint64 { return fnv1aMix(h, math.Float64bits(f)) }

// HashInit returns the FNV-1a seed for building row hashes.
func HashInit() uint64 { return fnv1aInit }
