package table_test

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/table"
	"repro/internal/trace"
)

// FuzzDecodeStream feeds arbitrary bytes to the peer wire decoder,
// seeded with a real trace-stage stream. Properties: no panic, every
// failure is an *IntegrityError, allocation stays proportional to the
// input, and an accepted stream round-trips — re-encoding the decoded
// table decodes to the same rows and re-encodes to the same bytes.
// Holding the stream and forcing its first read accepts exactly what
// DecodeStream accepts, with the same length and rows.
func FuzzDecodeStream(f *testing.F) {
	cfg := core.DefaultConfig()
	cfg.N2011, cfg.N2024 = 30, 40
	cfg.TraceYears = []int{2011, 2012}
	cfg.SimYear = 2011
	cfg.PanelN = 0
	payload, err := core.RunStage(context.Background(), cfg, "trace-2011", nil)
	if err != nil {
		f.Fatal(err)
	}
	tab, err := core.DecodeTraceStagePayload(payload)
	if err != nil {
		f.Fatal(err)
	}
	// The whole stage, plus its first 64 rows: a small valid stream
	// gives the mutator a cheap starting point.
	rows, err := table.Rows(tab)
	if err != nil {
		f.Fatal(err)
	}
	for _, tab := range []trace.JobTable{tab, table.FromSlice(trace.JobCodec{}, rows[:64])} {
		seed, err := table.EncodeStream(trace.JobCodec{}, tab)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
	}

	codec := trace.JobCodec{}
	f.Fuzz(func(t *testing.T, in []byte) {
		before := totalAlloc()
		got, err := table.DecodeStream(in, codec)
		if grown := totalAlloc() - before; grown > 1<<20+64*uint64(len(in)) {
			t.Fatalf("decoding %d bytes allocated %d", len(in), grown)
		}
		held, herr := table.Hold(in, codec, nil)
		if herr == nil {
			herr = held.Load()
		}
		if (herr == nil) != (err == nil) {
			t.Fatalf("hold and first read: err %v; DecodeStream: err %v", herr, err)
		}
		if herr != nil {
			var ie *table.IntegrityError
			if !errors.As(herr, &ie) {
				t.Fatalf("hold err = %v, want *IntegrityError", herr)
			}
		} else {
			want, err1 := table.Rows(got)
			rows, err2 := table.Rows[trace.Job](held)
			if err1 != nil || err2 != nil || held.Len(table.Exact) != got.Len(table.Exact) || !reflect.DeepEqual(rows, want) {
				t.Fatalf("held table: %d rows (%v), DecodeStream's: %d (%v)", held.Len(table.Exact), err2, got.Len(table.Exact), err1)
			}
		}
		if err != nil {
			var ie *table.IntegrityError
			if !errors.As(err, &ie) {
				t.Fatalf("err = %v, want *IntegrityError", err)
			}
			return
		}
		enc, err := table.EncodeStream(codec, got)
		if err != nil {
			t.Fatal(err)
		}
		again, err := table.DecodeStream(enc, codec)
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v", err)
		}
		rows1, err1 := table.Rows(got)
		rows2, err2 := table.Rows(again)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(rows1, rows2) {
			t.Fatalf("round trip changed the table: %d rows (%v) vs %d (%v)", len(rows1), err1, len(rows2), err2)
		}
		enc2, err := table.EncodeStream(codec, again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("encoding is not a fixed point of decode")
		}
	})
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
