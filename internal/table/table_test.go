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

func TestShardRangePartition(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 8192} {
		for _, total := range []int{1, 2, 3, 7, 16} {
			prev := 0
			for s := 0; s < total; s++ {
				lo, hi := ShardRange(s, s+1, total, n)
				if lo != prev {
					t.Fatalf("n=%d total=%d shard %d: lo=%d, want %d (gap/overlap)", n, total, s, lo, prev)
				}
				if hi < lo {
					t.Fatalf("n=%d total=%d shard %d: hi %d < lo %d", n, total, s, hi, lo)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d total=%d: shards cover %d rows", n, total, prev)
			}
		}
	}
}

func TestSliceScannerShards(t *testing.T) {
	rows := testRows(101)
	tab := NewSlice(rows)
	for _, shards := range []int{1, 2, 3, 7, 101, 200} {
		var got []testRow
		for s := 0; s < shards; s++ {
			sc := tab.Scanner(s, s+1, shards)
			for sc.Scan() {
				got = append(got, sc.Row())
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(got, rows) {
			t.Fatalf("shards=%d: sharded scan differs from rows", shards)
		}
	}
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
	cat := Concat[testRow](NewSlice(a), NewSlice(b), FromSlice[testRow](testCodec{}, c))
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
	for _, shards := range []int{2, 5, 11} {
		if !reflect.DeepEqual(shardRows(t, cat, shards), want) {
			t.Fatalf("shards=%d: concat sharded scan differs", shards)
		}
	}
	// Parts are storage, not content: the rows encode the same however
	// they are split or stored, and the same as one flat table.
	cat2 := Concat[testRow](
		NewSlice(append([]testRow(nil), a...)),
		NewSlice[testRow](nil),
		NewSlice(append([]testRow(nil), c...)),
	)
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

func TestShardFoldOrderFreeCount(t *testing.T) {
	rows := testRows(999)
	tab := builtParts(rows, 64)
	for _, shards := range []int{1, 3, 7} {
		counts, err := ShardFold[testRow](tab, shards,
			func() map[string]int { return map[string]int{} },
			func(m map[string]int, r testRow) map[string]int { m[r.Name]++; return m },
			func(a, b map[string]int) map[string]int {
				for k, v := range b {
					a[k] += v
				}
				return a
			})
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, v := range counts {
			total += v
		}
		if total != len(rows) {
			t.Fatalf("shards=%d: counted %d rows, want %d", shards, total, len(rows))
		}
	}
}

func TestShardCollectPreservesRowOrder(t *testing.T) {
	rows := testRows(500)
	tab := NewSlice(rows)
	for _, shards := range []int{1, 4, 9} {
		ids, err := ShardCollect[testRow](tab, shards, func(r testRow) uint64 { return r.ID })
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != len(rows) {
			t.Fatalf("shards=%d: %d ids", shards, len(ids))
		}
		for i, id := range ids {
			if id != rows[i].ID {
				t.Fatalf("shards=%d: ids out of row order at %d", shards, i)
			}
		}
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
	b, err := EncodeStream[testRow](testCodec{}, NewSlice(rows))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// shardRows scans tab shard by shard in ascending shard order.
func shardRows(t *testing.T, tab Table[testRow], shards int) []testRow {
	t.Helper()
	var out []testRow
	for s := 0; s < shards; s++ {
		sc := tab.Scanner(s, s+1, shards)
		for sc.Scan() {
			out = append(out, sc.Row())
		}
		if err := sc.Err(); err != nil {
			t.Fatalf("shard %d/%d: %v", s, shards, err)
		}
	}
	return out
}
