package table

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// testRow exercises every column primitive: integer, dict string, float.
type testRow struct {
	ID   uint64
	Name string
	Val  float64
}

type testColumns struct {
	ids   []uint64
	names []uint32
	vals  []float64
	dict  Dict
}

func (c *testColumns) Append(r testRow) {
	c.ids = append(c.ids, r.ID)
	c.names = append(c.names, c.dict.Code(r.Name))
	c.vals = append(c.vals, r.Val)
}

func (c *testColumns) Len() int { return len(c.ids) }

func (c *testColumns) Row(i int) testRow {
	return testRow{ID: c.ids[i], Name: c.dict.Value(c.names[i]), Val: c.vals[i]}
}

func (c *testColumns) reset() {
	c.ids, c.names, c.vals = c.ids[:0], c.names[:0], c.vals[:0]
	c.dict.Reset()
}

func (c *testColumns) EncodeTo(w *Writer) error {
	c.dict.EncodeTo(w)
	w.Uvarint(uint64(len(c.ids)))
	for i := range c.ids {
		w.Uvarint(c.ids[i])
		w.Uvarint(uint64(c.names[i]))
		w.Float64(c.vals[i])
	}
	return w.Err()
}

func (c *testColumns) DecodeFrom(r *Reader) error {
	c.reset()
	c.dict.DecodeFrom(r)
	n := r.Uvarint()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		c.ids = append(c.ids, r.Uvarint())
		c.names = append(c.names, uint32(r.Uvarint()))
		c.vals = append(c.vals, r.Float64())
	}
	return r.Err()
}

func (c *testColumns) MemBytes() int {
	return len(c.ids)*8 + len(c.names)*4 + len(c.vals)*8 + c.dict.MemBytes()
}

type testCodec struct{}

func (testCodec) NewColumns(int) Columns[testRow] { return &testColumns{} }

// DecodeLen implements HoldCodec: it skips the dictionary EncodeTo
// writes first and returns the row count that follows it. A row takes
// at least 10 bytes: two varints and a fixed 8-byte float.
func (testCodec) DecodeLen(r *Reader) int {
	SkipDict(r)
	return r.Count("test rows", 10)
}

func testRows(n int) []testRow {
	rows := make([]testRow, n)
	for i := range rows {
		rows[i] = testRow{
			ID:   uint64(i) * 7,
			Name: fmt.Sprintf("name-%d", i%13),
			Val:  float64(i) * 1.25,
		}
	}
	return rows
}

func TestBatchesRoundTrip(t *testing.T) {
	rows := testRows(1000)
	for _, size := range []int{1, 7, 100, 1000, 5000} {
		tab := builtParts(rows, size)
		if tab.Len(Exact) != len(rows) {
			t.Fatalf("part size %d: Len=%d, want %d", size, tab.Len(Exact), len(rows))
		}
		got, err := Rows[testRow](tab)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rows) {
			t.Fatalf("part size %d: rows differ after round trip", size)
		}
	}
	built, err := Build[testRow](testCodec{}, len(rows), func(appendRow func(testRow)) error {
		for _, r := range rows {
			appendRow(r)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := Rows[testRow](built); err != nil || !reflect.DeepEqual(got, rows) {
		t.Fatalf("built table differs from its rows (err %v)", err)
	}
	boom := errors.New("boom")
	if _, err := Build[testRow](testCodec{}, 0, func(func(testRow)) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("Build err = %v, want the emit error", err)
	}
}

// TestHashInvariantToBatchSizeAndStorage: the content identity (the
// encoded stream) of rows split into resident parts is the same at
// every part size, and a changed float changes it.
func TestHashInvariantToBatchSizeAndStorage(t *testing.T) {
	rows := testRows(500)
	ref := encodeRows(t, rows)
	for _, size := range []int{3, 64, 500} {
		enc, err := EncodeStream[testRow](testCodec{}, builtParts(rows, size))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, ref) {
			t.Fatalf("part size %d: stream differs from the slice's", size)
		}
	}
	// Different content must encode differently.
	mut := append([]testRow(nil), rows...)
	mut[250].Val += 1e-9
	if enc, err := EncodeStream[testRow](testCodec{}, builtParts(mut, 64)); err != nil || bytes.Equal(enc, ref) {
		t.Fatalf("stream ignored a float perturbation (err %v)", err)
	}
}

func TestConcat(t *testing.T) {
	a, b, c := testRows(37), testRows(1)[:0], testRows(64)
	for i := range c {
		c[i].ID += 1000
	}
	want := append(append(append([]testRow(nil), a...), b...), c...)
	cat := Concat[testRow](FromSlice[testRow](testCodec{}, a), FromSlice[testRow](testCodec{}, b), FromSlice[testRow](testCodec{}, c))
	if cat.Len(Exact) != len(want) {
		t.Fatalf("Len=%d, want %d", cat.Len(Exact), len(want))
	}
	got, err := Rows[testRow](cat)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("concat rows differ from concatenated slices")
	}
	// Parts are storage, not content: the rows encode the same however
	// they are split, and the same as one flat table.
	cat2 := Concat[testRow](
		FromSlice[testRow](testCodec{}, want[:20]),
		FromSlice[testRow](testCodec{}, nil),
		FromSlice[testRow](testCodec{}, want[20:]),
	)
	if got, err := Rows[testRow](cat2); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("resplit concat rows differ (err %v)", err)
	}
	flat := encodeRows(t, want)
	for _, tab := range []Table[testRow]{cat, cat2} {
		enc, err := EncodeStream(testCodec{}, tab)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, flat) {
			t.Fatal("concat encoding depends on part storage, not content")
		}
	}
}

// TestConcatStopsAtFailingPart: a Concat whose middle part fails its
// first read delivers the rows before that part, then stops with the
// part's *IntegrityError on every read path, and does not encode.
func TestConcatStopsAtFailingPart(t *testing.T) {
	first := testRows(5)
	bad, err := Hold[testRow](undecodableStream(t), testCodec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	cat := Concat[testRow](FromSlice[testRow](testCodec{}, first), bad, FromSlice[testRow](testCodec{}, testRows(7)))
	var seen []testRow
	eachErr := Each(cat, func(r testRow) bool {
		seen = append(seen, r)
		return true
	})
	var ie *IntegrityError
	if !errors.As(eachErr, &ie) {
		t.Fatalf("Each: err = %v, want *IntegrityError", eachErr)
	}
	if want := bad.Load(); !errors.Is(eachErr, want) {
		t.Fatalf("Each: err = %v, want the held part's %v", eachErr, want)
	}
	if !reflect.DeepEqual(seen, first) {
		t.Fatalf("Each delivered %d rows before the failing part, want the first part's %d", len(seen), len(first))
	}
	seen = nil
	if _, err := FoldSeq(cat, 0, func(n int, r testRow) int {
		seen = append(seen, r)
		return n + 1
	}); !errors.Is(err, eachErr) || !reflect.DeepEqual(seen, first) {
		t.Fatalf("FoldSeq: %d rows, err %v; want %d rows, then %v", len(seen), err, len(first), eachErr)
	}
	if rows, err := Rows[testRow](cat); rows != nil || !errors.Is(err, eachErr) {
		t.Fatalf("Rows: %d rows, err %v; want none and %v", len(rows), err, eachErr)
	}
	if _, err := EncodeStream[testRow](testCodec{}, cat); !errors.Is(err, eachErr) {
		t.Fatalf("EncodeStream: err = %v, want %v", err, eachErr)
	}
}

func TestFoldSeqMatchesLoop(t *testing.T) {
	rows := testRows(777)
	tab := builtParts(rows, 50)
	want := 0.0
	for _, r := range rows {
		want += r.Val
	}
	got, err := FoldSeq(tab, 0.0, func(a float64, r testRow) float64 { return a + r.Val })
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("FoldSeq = %v, want %v (bit-exact)", got, want)
	}
}

// builtParts returns rows as a Concat of resident tables of size rows
// each, the last one shorter when size does not divide the rows.
func builtParts(rows []testRow, size int) Table[testRow] {
	var parts []Table[testRow]
	for lo := 0; lo < len(rows); lo += size {
		parts = append(parts, FromSlice[testRow](testCodec{}, rows[lo:min(lo+size, len(rows))]))
	}
	return Concat(parts...)
}

// encodeRows returns the EncodeStream bytes of rows.
func encodeRows(t *testing.T, rows []testRow) []byte {
	t.Helper()
	b, err := EncodeStream[testRow](testCodec{}, FromSlice[testRow](testCodec{}, rows))
	if err != nil {
		t.Fatal(err)
	}
	return b
}
