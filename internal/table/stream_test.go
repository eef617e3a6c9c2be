package table

import (
	"bytes"
	"errors"
	"reflect"
	"runtime"
	"testing"
)

func TestStreamRoundTrip(t *testing.T) {
	rows := testRows(500)
	src, err := FromSlice[testRow](testCodec{}, Options{BatchSize: 64}, rows)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := EncodeStream[testRow](testCodec{}, src)
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
	sc := got.Scanner(0, 1, 1)
	for sc.Scan() {
		out = append(out, sc.Row())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, rows) {
		t.Fatal("decoded rows differ from source")
	}
	// The content hash must survive the trip: storage layout (batches vs
	// one resident Columns) never reaches the hash.
	h1, err := src.Hash()
	if err != nil {
		t.Fatal(err)
	}
	h2, err := got.Hash()
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("hash changed across stream: %x vs %x", h1, h2)
	}
}

func TestStreamEncodingInvariantToStorage(t *testing.T) {
	rows := testRows(300)
	small, _ := FromSlice[testRow](testCodec{}, Options{BatchSize: 16}, rows)
	big, _ := FromSlice[testRow](testCodec{}, Options{BatchSize: 4096}, rows)
	b1, err := EncodeStream[testRow](testCodec{}, small)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := EncodeStream[testRow](testCodec{}, big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("stream bytes depend on batch size")
	}
}

func TestStreamDetectsCorruption(t *testing.T) {
	rows := testRows(100)
	src, _ := FromSlice[testRow](testCodec{}, Options{}, rows)
	buf, err := EncodeStream[testRow](testCodec{}, src)
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

func TestFromColumnsSharding(t *testing.T) {
	cols := (testCodec{}).NewColumns()
	rows := testRows(97)
	for _, r := range rows {
		cols.Append(r)
	}
	tab := FromColumns[testRow](testCodec{}, cols)
	// Scanning shard-by-shard in ascending order must reproduce the
	// whole table for any shard count.
	for _, total := range []int{1, 2, 3, 7, 97, 200} {
		var out []testRow
		for s := 0; s < total; s++ {
			sc := tab.Scanner(s, s+1, total)
			for sc.Scan() {
				out = append(out, sc.Row())
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(out, rows) {
			t.Fatalf("shard total %d: reassembled rows differ", total)
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
