package table_test

import (
	"bytes"
	"testing"

	"repro/internal/modlog"
	"repro/internal/population"
	"repro/internal/rng"
	"repro/internal/survey"
	"repro/internal/table"
	"repro/internal/trace"
)

// fuzzColumns is what FuzzColumnsDecodeFrom needs of a Columns[T],
// whatever its row type.
type fuzzColumns interface {
	Len() int
	EncodeTo(w *table.Writer) error
	DecodeFrom(r *table.Reader) error
}

// columnsKind makes empty columns of one codec, with a func that
// materializes row i.
type columnsKind func() (fuzzColumns, func(i int))

func kindOf[T any](codec table.Codec[T]) columnsKind {
	return func() (fuzzColumns, func(int)) {
		c := codec.NewColumns(0)
		return c, func(i int) { _ = c.Row(i) }
	}
}

// seedBatch is the EncodeTo bytes of one batch holding rows.
func seedBatch[T any](f *testing.F, codec table.Codec[T], rows []T) []byte {
	c := codec.NewColumns(len(rows))
	for _, r := range rows {
		c.Append(r)
	}
	w := table.NewWriter(nil)
	if err := c.EncodeTo(w); err != nil {
		f.Fatal(err)
	}
	return w.Bytes()
}

// FuzzColumnsDecodeFrom feeds arbitrary bytes straight to the job,
// event and response column decoders (the kind byte picks one), past
// the checksum that shields them inside a stream. Seeds are real
// batches. For any input: DecodeFrom must not panic, must allocate in
// proportion to the input, and must accept only batches whose every
// row materializes without a panic; re-encoding an accepted batch must
// be a fixed point.
func FuzzColumnsDecodeFrom(f *testing.F) {
	r := rng.New(3)
	jobs, err := trace.CampusModel(2011).Generate(r.SplitNamed("trace"), 1)
	if err != nil {
		f.Fatal(err)
	}
	events, err := modlog.CampusModulesModel(2011).Generate(r.SplitNamed("modlog"))
	if err != nil {
		f.Fatal(err)
	}
	gen, err := population.NewGenerator(population.Model2024())
	if err != nil {
		f.Fatal(err)
	}
	cohort, err := gen.GenerateParallel(7, 12, 1)
	if err != nil {
		f.Fatal(err)
	}
	responses := make([]survey.Response, len(cohort))
	for i, resp := range cohort {
		responses[i] = *resp
	}
	kinds := []columnsKind{kindOf[trace.Job](trace.JobCodec{}), kindOf[modlog.Event](modlog.EventCodec{}), kindOf[survey.Response](survey.ResponseCodec{})}
	f.Add(uint8(0), seedBatch(f, trace.JobCodec{}, jobs[:64]))
	f.Add(uint8(1), seedBatch(f, modlog.EventCodec{}, events[:64]))
	f.Add(uint8(2), seedBatch(f, survey.ResponseCodec{}, responses))

	encode := func(t *testing.T, c fuzzColumns) []byte {
		w := table.NewWriter(nil)
		if err := c.EncodeTo(w); err != nil {
			t.Fatalf("accepted batch does not re-encode: %v", err)
		}
		return w.Bytes()
	}
	f.Fuzz(func(t *testing.T, kind uint8, in []byte) {
		newColumns := kinds[int(kind)%len(kinds)]
		cols, row := newColumns()
		rd := table.NewReader(in)
		before := totalAlloc()
		err := cols.DecodeFrom(rd)
		if grown := totalAlloc() - before; grown > 1<<20+64*uint64(len(in)) {
			t.Fatalf("kind %d: decoding %d bytes allocated %d", kind, len(in), grown)
		}
		if err != nil || rd.Err() != nil {
			return
		}
		for i := 0; i < cols.Len(); i++ {
			row(i)
		}
		enc := encode(t, cols)
		again, _ := newColumns()
		if err := again.DecodeFrom(table.NewReader(enc)); err != nil {
			t.Fatalf("kind %d: re-encoded batch rejected: %v", kind, err)
		}
		if !bytes.Equal(encode(t, again), enc) {
			t.Fatalf("kind %d: encoding is not a fixed point of decode", kind)
		}
	})
}
