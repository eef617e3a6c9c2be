package survey

import (
	"math"
	"testing"
)

func crossTabFixture(t *testing.T) (*Instrument, []*Response) {
	t.Helper()
	ins, err := NewInstrument("ct", []Question{
		{ID: "field", Kind: SingleChoice, Options: []string{"physics", "biology", "unused"}},
		{ID: "use", Kind: SingleChoice, Options: []string{"yes", "no"}},
		{ID: "happy", Kind: Likert, Scale: 5},
		{ID: "langs", Kind: MultiChoice, Options: []string{"python", "c", "r"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(id, f, u string, rating int, w float64) *Response {
		r := NewResponse(id, 2024)
		r.Weight = w
		r.SetChoice("field", f)
		r.SetChoice("use", u)
		r.SetRating("happy", rating)
		return r
	}
	rs := []*Response{
		mk("1", "physics", "yes", 5, 1),
		mk("2", "physics", "yes", 4, 2),
		mk("3", "physics", "no", 2, 1),
		mk("4", "biology", "no", 3, 1),
		mk("5", "biology", "yes", 1, 1),
	}
	return ins, rs
}

func TestCrossTabulate(t *testing.T) {
	ins, rs := crossTabFixture(t)
	ct, err := ins.CrossTabulate("field", "use", rs)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Base != 6 || ct.RawBase != 5 {
		t.Fatalf("base %g raw %d", ct.Base, ct.RawBase)
	}
	if ct.At("physics", "yes") != 3 || ct.At("physics", "no") != 1 {
		t.Fatalf("cells wrong: %g %g", ct.At("physics", "yes"), ct.At("physics", "no"))
	}
	if got := ct.RowShare("physics", "yes"); got != 0.75 {
		t.Fatalf("row share %g", got)
	}
	if got := ct.RowShare("unused", "yes"); got != 0 {
		t.Fatalf("empty row share %g", got)
	}
}

func TestCrossTabFlattenDropsEmpty(t *testing.T) {
	ins, rs := crossTabFixture(t)
	ct, _ := ins.CrossTabulate("field", "use", rs)
	rows, cols, counts := ct.Flatten()
	if len(rows) != 2 || len(cols) != 2 {
		t.Fatalf("rows %v cols %v", rows, cols)
	}
	for _, r := range rows {
		if r == "unused" {
			t.Fatal("empty row kept")
		}
	}
	if len(counts) != 4 {
		t.Fatalf("counts %v", counts)
	}
	// Row-major: physics yes, physics no, biology yes, biology no.
	if counts[0] != 3 || counts[1] != 1 || counts[2] != 1 || counts[3] != 1 {
		t.Fatalf("counts %v", counts)
	}
}

func TestCrossTabErrors(t *testing.T) {
	ins, rs := crossTabFixture(t)
	if _, err := ins.CrossTabulate("nope", "use", rs); err == nil {
		t.Fatal("unknown row question accepted")
	}
	if _, err := ins.CrossTabulate("field", "nope", rs); err == nil {
		t.Fatal("unknown col question accepted")
	}
	if _, err := ins.CrossTabulate("field", "happy", rs); err == nil {
		t.Fatal("likert column accepted")
	}
}

func TestSummarizeLikert(t *testing.T) {
	ins, rs := crossTabFixture(t)
	s, err := ins.SummarizeLikert("happy", rs)
	if err != nil {
		t.Fatal(err)
	}
	if s.Base != 6 || s.RawBase != 5 || s.Scale != 5 {
		t.Fatalf("summary %+v", s)
	}
	// Weighted mean: (5*1 + 4*2 + 2*1 + 3*1 + 1*1)/6 = 19/6.
	if math.Abs(s.Mean-19.0/6.0) > 1e-12 {
		t.Fatalf("mean %g", s.Mean)
	}
	// Top box (ratings 4,5): weights 2+1 = 3 of 6.
	if s.TopBox != 0.5 {
		t.Fatalf("topbox %g", s.TopBox)
	}
	if _, err := ins.SummarizeLikert("field", rs); err == nil {
		t.Fatal("non-likert accepted")
	}
	if _, err := ins.SummarizeLikert("nope", rs); err == nil {
		t.Fatal("unknown accepted")
	}
	// Invalid stored rating is caught.
	bad := NewResponse("x", 2024)
	bad.SetRating("happy", 9)
	if _, err := ins.SummarizeLikert("happy", []*Response{bad}); err == nil {
		t.Fatal("invalid rating accepted")
	}
	// Empty responses: zero-valued summary, no crash.
	empty, err := ins.SummarizeLikert("happy", nil)
	if err != nil || empty.Mean != 0 || empty.TopBox != 0 {
		t.Fatalf("empty summary %+v err=%v", empty, err)
	}
}
