package table

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
)

func TestStreamRoundTrip(t *testing.T) {
	rows := testRows(500)
	buf, err := EncodeStream[testRow](testCodec{}, builtParts(rows, 64))
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeStream[testRow](buf, testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Len(Exact) != len(rows) {
		t.Fatalf("decoded %d rows, want %d", got.Len(Exact), len(rows))
	}
	var out []testRow
	sc := got.Scanner()
	for sc.Scan() {
		out = append(out, sc.Row())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, rows) {
		t.Fatal("decoded rows differ from source")
	}
	// The content identity must survive the trip: storage layout
	// (resident parts vs one decoded Columns) never reaches the encoding.
	again, err := EncodeStream(testCodec{}, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, buf) {
		t.Fatal("stream bytes changed across a decode")
	}
}

// TestStreamEncodingInvariantToStorage: a table's content identity is
// its encoded stream, so every storage of the same rows encodes to the
// same bytes and scans the same rows, while a changed float changes the
// stream. That includes tables decoded from a
// valid stream whose columns are not the ones a re-append builds.
func TestStreamEncodingInvariantToStorage(t *testing.T) {
	rows := testRows(500)
	want := encodeRows(t, rows)
	odd := noncanonicalStream(t, rows)
	if bytes.Equal(odd, want) {
		t.Fatal("the hand-framed stream is the canonical one")
	}
	oddDecoded, err := DecodeStream[testRow](odd, testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	oddHeld, err := Hold[testRow](odd, testCodec{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	held := func(part []testRow) *Held[testRow] {
		h, err := Hold[testRow](encodeRows(t, part), testCodec{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return h
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
	loaded := held(rows)
	if err := loaded.Load(); err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeStream[testRow](want, testCodec{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		tab  Table[testRow]
	}{
		{"built", built},
		{"concat/built/3", builtParts(rows, 3)},
		{"concat/built/64", builtParts(rows, 64)},
		{"concat/built/500", builtParts(rows, 500)},
		{"concat/mixed", Concat[testRow](
			FromSlice[testRow](testCodec{}, rows[:37]),
			FromSlice[testRow](testCodec{}, rows[37:37]),
			builtParts(rows[37:300], 10),
			held(rows[300:]),
		)},
		{"held/unread", held(rows)},
		{"held/loaded", loaded},
		{"decoded", decoded},
		{"concat/held", Concat[testRow](held(rows[:120]), held(rows[120:333]), held(rows[333:]))},
		{"decoded/noncanonical", oddDecoded},
		{"held/noncanonical", oddHeld},
	} {
		if n := tc.tab.Len(Exact); n != len(rows) {
			t.Fatalf("%s: Len=%d, want %d", tc.name, n, len(rows))
		}
		enc, err := EncodeStream(testCodec{}, tc.tab)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(enc, want) {
			t.Fatalf("%s: stream bytes depend on storage", tc.name)
		}
		if got, err := Rows(tc.tab); err != nil || !reflect.DeepEqual(got, rows) {
			t.Fatalf("%s: scan differs from rows (err %v)", tc.name, err)
		}
	}
	mut := append([]testRow(nil), rows...)
	mut[250].Val += 1e-9
	if bytes.Equal(encodeRows(t, mut), want) {
		t.Fatal("stream ignored a float perturbation")
	}
}

// noncanonicalStream frames rows as a stream with a valid checksum whose
// dictionary is out of first-appearance order and holds an entry no row
// uses: columns a peer or a disk may send, which decode to rows but are
// not the columns a re-append of those rows builds.
func noncanonicalStream(t *testing.T, rows []testRow) []byte {
	t.Helper()
	cols := &testColumns{}
	cols.dict.Code("unused")
	for i := len(rows) - 1; i >= 0; i-- {
		cols.dict.Code(rows[i].Name)
	}
	for _, r := range rows {
		cols.ids = append(cols.ids, r.ID)
		cols.names = append(cols.names, cols.dict.Code(r.Name))
		cols.vals = append(cols.vals, r.Val)
	}
	pw := NewWriter(nil)
	if err := cols.EncodeTo(pw); err != nil {
		t.Fatal(err)
	}
	return frameStream(len(rows), pw.Bytes())
}

// undecodableStream frames a stream with a valid checksum that Hold
// accepts but whose first read fails: its columns claim three rows and
// hold two, each wide enough that the claim passes the count bound.
func undecodableStream(t *testing.T) []byte {
	t.Helper()
	pw := NewWriter(nil)
	var d Dict
	d.Code("name-0")
	d.EncodeTo(pw)
	pw.Uvarint(3)
	for i := 0; i < 2; i++ {
		pw.Uvarint(1 << 40)
		pw.Uvarint(0)
		pw.Float64(1)
	}
	if err := pw.Err(); err != nil {
		t.Fatal(err)
	}
	return frameStream(3, pw.Bytes())
}

// frameStream wraps a column payload in a stream envelope claiming rows.
func frameStream(rows int, payload []byte) []byte {
	sum := sha256.Sum256(payload)
	w := NewWriter(nil)
	w.Raw([]byte(streamMagic))
	w.Uvarint(uint64(rows))
	w.Uvarint(uint64(len(payload)))
	w.Raw(sum[:])
	w.Raw(payload)
	return w.Bytes()
}

// TestEncodeBuiltTableConcurrently: a built table's stream frames the
// Columns its scans read, so encodes and scans of one table may run at
// once (run under -race).
func TestEncodeBuiltTableConcurrently(t *testing.T) {
	rows := testRows(200)
	want := encodeRows(t, rows)
	tab := FromSlice[testRow](testCodec{}, rows)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if enc, err := EncodeStream[testRow](testCodec{}, tab); err != nil || !bytes.Equal(enc, want) {
				t.Errorf("concurrent encode differs (err %v)", err)
			}
		}()
		go func() {
			defer wg.Done()
			if got, err := Rows[testRow](tab); err != nil || !reflect.DeepEqual(got, rows) {
				t.Errorf("concurrent scan differs (err %v)", err)
			}
		}()
	}
	wg.Wait()
}

func TestStreamDetectsCorruption(t *testing.T) {
	rows := testRows(100)
	buf, err := EncodeStream[testRow](testCodec{}, FromSlice[testRow](testCodec{}, rows))
	if err != nil {
		t.Fatal(err)
	}
	pristine := append([]byte(nil), buf...)

	cases := map[string]func([]byte) []byte{
		"flipped payload byte": func(b []byte) []byte {
			b[len(b)-3] ^= 0xff
			return b
		},
		"truncated": func(b []byte) []byte { return b[:len(b)/2] },
		"bad magic": func(b []byte) []byte {
			b[0] ^= 0xff
			return b
		},
		"empty": func([]byte) []byte { return nil },
	}
	for name, corrupt := range cases {
		body := corrupt(append([]byte(nil), pristine...))
		_, err := DecodeStream[testRow](body, testCodec{})
		var ie *IntegrityError
		if !errors.As(err, &ie) {
			t.Errorf("%s: err = %v, want *IntegrityError", name, err)
		}
	}
}

// TestStreamBoundsAllocation: the header's payload length is untrusted,
// so a few bytes claiming a 2 GiB payload must fail as an integrity
// error without allocating anything near the claim.
func TestStreamBoundsAllocation(t *testing.T) {
	w := NewWriter(nil)
	w.Raw([]byte(streamMagic))
	w.Uvarint(1)
	w.Uvarint(1 << 31)
	w.Raw(make([]byte, 32)) // checksum
	w.Raw([]byte("a few payload bytes"))
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	hdr := w.Bytes()
	before := totalAlloc()
	_, err := DecodeStream[testRow](hdr, testCodec{})
	grown := totalAlloc() - before
	var ie *IntegrityError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want *IntegrityError", err)
	}
	if grown >= 1<<20 {
		t.Fatalf("decoding a %d-byte stream allocated %d bytes", len(hdr), grown)
	}
}

// totalAlloc reports the bytes this process has allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
