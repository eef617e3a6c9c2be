package survey

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/table"
)

func colTestResponses(n int) []Response {
	out := make([]Response, n)
	for i := range out {
		r := Response{
			ID:      fmt.Sprintf("r%05d", i),
			Cohort:  2011 + 13*(i%2),
			Weight:  1 + float64(i)*0.01,
			Answers: map[string]Answer{},
		}
		r.Answers["role"] = Answer{Choice: []string{"faculty", "postdoc", "grad"}[i%3]}
		r.Answers["languages"] = Answer{Choices: []string{"python", "c++"}[:1+i%2]}
		r.Answers["satisfaction"] = Answer{Rating: 1 + i%5}
		r.Answers["years_hpc"] = Answer{Value: float64(i % 20)}
		if i%4 == 0 {
			r.Answers["pain_point"] = Answer{Text: fmt.Sprintf("queue waits %d", i)}
		}
		if i%7 == 0 {
			delete(r.Answers, "satisfaction") // skip logic leaves gaps
		}
		out[i] = r
	}
	return out
}

func TestResponseColumnsRoundTrip(t *testing.T) {
	rs := colTestResponses(500)
	for _, size := range []int{32, 128, 600} {
		got, err := table.Rows[Response](builtParts(rs, size))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, rs) {
			t.Fatalf("part size %d: responses differ after columnar round trip", size)
		}
	}
}

func TestResponseColumnsSpillRoundTrip(t *testing.T) {
	rs := colTestResponses(1000)
	enc, err := table.EncodeStream[Response](ResponseCodec{}, table.FromSlice[Response](ResponseCodec{}, rs))
	if err != nil {
		t.Fatal(err)
	}
	tab, err := table.DecodeStream[Response](enc, ResponseCodec{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := table.Rows[Response](tab)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rs) {
		t.Fatal("responses differ after an encode/decode round trip")
	}
}

// builtParts returns rs as a Concat of resident tables of size rows
// each.
func builtParts(rs []Response, size int) table.Table[Response] {
	var parts []table.Table[Response]
	for lo := 0; lo < len(rs); lo += size {
		parts = append(parts, table.FromSlice[Response](ResponseCodec{}, rs[lo:min(lo+size, len(rs))]))
	}
	return table.Concat(parts...)
}

// TestResponseHashCanonicalOverMapOrder: a cohort's encoded stream,
// checksum included, is canonical over the order its answer maps were
// filled in, and still tells a changed weight apart.
func TestResponseHashCanonicalOverMapOrder(t *testing.T) {
	rs := colTestResponses(20)
	r := rs[0]
	// Rebuild the answers map in reverse key order: map iteration order
	// is not part of the content.
	reb := Response{ID: r.ID, Cohort: r.Cohort, Weight: r.Weight, Answers: map[string]Answer{}}
	var qids []string
	for qid := range r.Answers {
		qids = append(qids, qid)
	}
	slices.Sort(qids)
	for i := len(qids) - 1; i >= 0; i-- {
		reb.Answers[qids[i]] = r.Answers[qids[i]]
	}
	rebuilt := append([]Response{reb}, rs[1:]...)
	if !bytes.Equal(encodeResponses(t, rs), encodeResponses(t, rebuilt)) {
		t.Fatal("encoding depends on map insertion order")
	}
	mut := append([]Response(nil), rs...)
	mut[1].Weight += 1e-12
	if bytes.Equal(encodeResponses(t, rs), encodeResponses(t, mut)) {
		t.Fatal("encoding ignored a weight perturbation")
	}
}

// encodeResponses returns the EncodeStream bytes of rs.
func encodeResponses(t *testing.T, rs []Response) []byte {
	t.Helper()
	b, err := table.EncodeStream[Response](ResponseCodec{}, table.NewSlice(rs))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMaterializeResponsesIsolation(t *testing.T) {
	rs := colTestResponses(50)
	tab := builtParts(rs, 16)
	view, err := MaterializeResponses(tab)
	if err != nil {
		t.Fatal(err)
	}
	if len(view) != len(rs) {
		t.Fatalf("materialized %d responses, want %d", len(view), len(rs))
	}
	// Mutating the view (as raking does) must not leak into the table.
	view[0].Weight = 99
	again, err := table.Rows[Response](tab)
	if err != nil {
		t.Fatal(err)
	}
	if again[0].Weight == 99 {
		t.Fatal("view mutation leaked into table storage")
	}
}

// TestResponseColumnsRejectInconsistentBatch: a batch whose per-row
// answer counts, per-answer choice counts or dictionary codes point
// past what it holds is refused at decode time — Row would otherwise
// panic on it, at render time, outside any restore guard.
func TestResponseColumnsRejectInconsistentBatch(t *testing.T) {
	type answer struct{ qid, choice, nchoices uint64 }
	batch := func(rowAnswers uint64, answers []answer, choices []uint64) []byte {
		w := table.NewWriter(nil)
		w.Uvarint(1) // one question ID
		w.String("role")
		w.Uvarint(1) // one choice string
		w.String("faculty")
		w.Uvarint(1) // one row
		w.String("r00000")
		w.Varint(2024)
		w.Float64(1)
		w.Uvarint(rowAnswers)
		w.Uvarint(uint64(len(answers)))
		for _, a := range answers {
			w.Uvarint(a.qid)
			w.Uvarint(a.choice)
			w.Uvarint(a.nchoices)
			w.Varint(0)  // rating
			w.Float64(0) // value
			w.String("") // text
		}
		for _, ch := range choices {
			w.Uvarint(ch)
		}
		return w.Bytes()
	}
	valid := batch(1, []answer{{0, 0, 1}}, []uint64{0})
	cols := ResponseCodec{}.NewColumns(0)
	if err := cols.DecodeFrom(table.NewReader(valid)); err != nil {
		t.Fatalf("valid batch refused: %v", err)
	}
	for name, in := range map[string][]byte{
		"row claims answers that never follow":     batch(5, nil, nil),
		"row claims fewer answers than follow":     batch(0, []answer{{0, 0, 0}}, nil),
		"answer claims choices that never follow":  batch(1, []answer{{0, 0, 5}}, nil),
		"question code outside its dictionary":     batch(1, []answer{{3, 0, 0}}, nil),
		"choice code outside its dictionary":       batch(1, []answer{{0, 3, 0}}, nil),
		"multi-choice code outside its dictionary": batch(1, []answer{{0, 0, 1}}, []uint64{3}),
	} {
		cols := ResponseCodec{}.NewColumns(0)
		if err := cols.DecodeFrom(table.NewReader(in)); err == nil {
			t.Errorf("%s: decoded", name)
		}
	}
}
