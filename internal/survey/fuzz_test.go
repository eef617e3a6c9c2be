package survey_test

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/population"
	"repro/internal/rng"
	"repro/internal/survey"
)

// FuzzDecodeJSON feeds arbitrary bytes to the NDJSON response decoder,
// which POST /v1/responses hands client bodies to. No input may panic,
// and an accepted input must re-encode through WriteJSON and decode
// again to a deeply equal result, non-nil empty choices included.
func FuzzDecodeJSON(f *testing.F) {
	ins := survey.Canonical()
	g, err := population.NewGenerator(population.Model2024())
	if err != nil {
		f.Fatal(err)
	}
	rs, err := g.GenerateRespondents(rng.New(1), 4)
	if err != nil {
		f.Fatal(err)
	}
	var cohort bytes.Buffer
	if err := ins.WriteJSON(&cohort, rs); err != nil {
		f.Fatal(err)
	}
	f.Add(cohort.Bytes())
	for _, line := range []string{
		`{"id":"u","cohort":2024,"weight":1,"answers":{"no such question":{"kind":"single","choice":"x"}}}`,
		`{"id":"k","cohort":2024,"weight":1,"answers":{"languages":{"kind":"single","choice":"python"}}}`,
		`{"id":"e","cohort":2024,"weight":1,"answers":{"languages":{"kind":"multi","choices":[]}}}`,
		`{"id":"d","cohort":2024,"weight":1,"answers":{"languages":{"kind":"multi","choices":["r","python","r","python"]}}}`,
	} {
		f.Add([]byte(line + "\n"))
	}

	f.Fuzz(func(t *testing.T, in []byte) {
		rs, err := ins.DecodeJSON(bytes.NewReader(in))
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := ins.WriteJSON(&enc, rs); err != nil {
			t.Fatalf("accepted input does not re-encode: %v", err)
		}
		again, err := ins.DecodeJSON(&enc)
		if err != nil {
			t.Fatalf("re-encoded input rejected: %v", err)
		}
		if !reflect.DeepEqual(rs, again) {
			t.Fatalf("decode → encode → decode changed the responses:\n%#v\nwant:\n%#v", again, rs)
		}
	})
}
