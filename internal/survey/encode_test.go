package survey

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func sampleResponses(t *testing.T, ins *Instrument) []*Response {
	t.Helper()
	r1 := NewResponse("a", 2011)
	r1.Weight = 1.5
	r1.SetChoice("color", "red")
	r1.SetChoices("pets", []string{"cat"})
	r1.SetRating("happy", 3)
	r1.SetValue("age", 40.5)
	r1.SetText("notes", "hello, \"world\"\nnewline")
	r2 := NewResponse("b", 2024)
	r2.SetChoice("color", "blue")
	r2.SetChoices("pets", []string{"dog", "fish"})
	r2.SetRating("happy", 5)
	r2.SetText("dog_name", "Rex")
	for _, r := range []*Response{r1, r2} {
		if errs := ins.Validate(r); len(errs) != 0 {
			t.Fatalf("fixture invalid: %v", errs)
		}
	}
	return []*Response{r1, r2}
}

func TestJSONRoundTrip(t *testing.T) {
	ins := testInstrument(t)
	in := sampleResponses(t, ins)
	var buf bytes.Buffer
	if err := ins.WriteJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ins.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("got %d responses", len(out))
	}
	for i := range in {
		a, b := in[i], out[i]
		if a.ID != b.ID || a.Cohort != b.Cohort || a.Weight != b.Weight {
			t.Fatalf("metadata mismatch: %+v vs %+v", a, b)
		}
		if len(a.Answers) != len(b.Answers) {
			t.Fatalf("answer count mismatch for %s", a.ID)
		}
		for id, av := range a.Answers {
			bv, ok := b.Answers[id]
			if !ok {
				t.Fatalf("answer %s lost", id)
			}
			if av.Choice != bv.Choice || av.Rating != bv.Rating ||
				av.Value != bv.Value || av.Text != bv.Text ||
				strings.Join(av.Choices, "|") != strings.Join(bv.Choices, "|") {
				t.Fatalf("answer %s mismatch: %+v vs %+v", id, av, bv)
			}
		}
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	ins := testInstrument(t)
	if _, err := ins.ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Unknown question.
	if _, err := ins.ReadJSON(strings.NewReader(
		`{"id":"x","cohort":2024,"weight":1,"answers":{"ghost":{"kind":"text","text":"boo"}}}`)); err == nil {
		t.Fatal("unknown question accepted")
	}
	// Kind mismatch.
	if _, err := ins.ReadJSON(strings.NewReader(
		`{"id":"x","cohort":2024,"weight":1,"answers":{"color":{"kind":"text","text":"red"}}}`)); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	// Valid JSON but invalid answer (fails validation).
	if _, err := ins.ReadJSON(strings.NewReader(
		`{"id":"x","cohort":2024,"weight":1,"answers":{"color":{"kind":"single","choice":"mauve"},"happy":{"kind":"likert","rating":3}}}`)); err == nil {
		t.Fatal("invalid choice accepted")
	}
}

// TestDecodeJSONSkipsValidation: DecodeJSON accepts representable but
// rule-breaking answers (the serving layer validates per response), yet
// still rejects payloads that cannot be represented at all.
func TestDecodeJSONSkipsValidation(t *testing.T) {
	ins := testInstrument(t)
	// Invalid choice decodes fine; Validate then reports it.
	out, err := ins.DecodeJSON(strings.NewReader(
		`{"id":"x","cohort":2024,"weight":1,"answers":{"color":{"kind":"single","choice":"mauve"},"happy":{"kind":"likert","rating":3}}}`))
	if err != nil {
		t.Fatalf("DecodeJSON: %v", err)
	}
	if len(out) != 1 {
		t.Fatalf("decoded %d responses, want 1", len(out))
	}
	if errs := ins.Validate(out[0]); len(errs) == 0 {
		t.Fatal("Validate passed an invalid choice")
	}
	// Unknown questions and kind mismatches still fail at decode time.
	if _, err := ins.DecodeJSON(strings.NewReader(
		`{"id":"x","cohort":2024,"weight":1,"answers":{"ghost":{"kind":"text","text":"boo"}}}`)); err == nil {
		t.Fatal("unknown question decoded")
	}
	if _, err := ins.DecodeJSON(strings.NewReader(
		`{"id":"x","cohort":2024,"weight":1,"answers":{"color":{"kind":"text","text":"red"}}}`)); err == nil {
		t.Fatal("kind mismatch decoded")
	}
}

func TestWriteJSONUnknownQuestion(t *testing.T) {
	ins := testInstrument(t)
	r := NewResponse("x", 2024)
	r.SetText("ghost", "boo")
	var buf bytes.Buffer
	if err := ins.WriteJSON(&buf, []*Response{r}); err == nil {
		t.Fatal("unknown question written")
	}
}

func TestWriteCSV(t *testing.T) {
	ins := testInstrument(t)
	in := sampleResponses(t, ins)
	var buf bytes.Buffer
	if err := ins.WriteCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) < 3 {
		t.Fatalf("csv:\n%s", buf.String())
	}
	if !strings.HasPrefix(lines[0], "id,cohort,weight,color,pets,") {
		t.Fatalf("header: %s", lines[0])
	}
	if !strings.Contains(buf.String(), "dog|fish") {
		t.Fatalf("multi-choice join missing:\n%s", buf.String())
	}
	// Quoting: the embedded quote/newline field must be escaped.
	if !strings.Contains(buf.String(), `"hello, ""world""`) {
		t.Fatalf("quoting failed:\n%s", buf.String())
	}
}

func TestWriteCSVRejectsSeparatorInOption(t *testing.T) {
	ins, err := NewInstrument("x", []Question{
		{ID: "q", Kind: MultiChoice, Options: []string{"a|b", "c"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := NewResponse("r", 2024)
	r.SetChoices("q", []string{"a|b"})
	var buf bytes.Buffer
	if err := ins.WriteCSV(&buf, []*Response{r}); err == nil {
		t.Fatal("separator-containing option written")
	}
}

func TestTabulateSingle(t *testing.T) {
	ins := testInstrument(t)
	rs := sampleResponses(t, ins)
	tab, err := ins.Tabulate("color", rs)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Base != 2.5 || tab.RawBase != 2 {
		t.Fatalf("base=%g raw=%d", tab.Base, tab.RawBase)
	}
	if !almostEqual(tab.Share("red"), 1.5/2.5) || !almostEqual(tab.Share("blue"), 1/2.5) {
		t.Fatalf("shares: red=%g blue=%g", tab.Share("red"), tab.Share("blue"))
	}
	if tab.Share("green") != 0 {
		t.Fatal("green share should be 0")
	}
}

func TestTabulateMultiBaseIsRespondents(t *testing.T) {
	ins := testInstrument(t)
	rs := sampleResponses(t, ins)
	tab, err := ins.Tabulate("pets", rs)
	if err != nil {
		t.Fatal(err)
	}
	// r2 selected two pets but counts once in the base.
	if tab.Base != 2.5 {
		t.Fatalf("base=%g", tab.Base)
	}
	if tab.Counts["dog"] != 1 || tab.Counts["cat"] != 1.5 {
		t.Fatalf("counts=%v", tab.Counts)
	}
}

func TestTabulateOrdering(t *testing.T) {
	ins := testInstrument(t)
	rs := sampleResponses(t, ins)
	tab, _ := ins.Tabulate("color", rs)
	opts := tab.Options()
	if opts[0] != "red" { // highest weighted count
		t.Fatalf("options=%v", opts)
	}
	if len(opts) != 3 {
		t.Fatalf("options=%v", opts)
	}
}

func TestTabulateErrors(t *testing.T) {
	ins := testInstrument(t)
	if _, err := ins.Tabulate("nope", nil); err == nil {
		t.Fatal("unknown question accepted")
	}
	if _, err := ins.Tabulate("age", nil); err == nil {
		t.Fatal("numeric question accepted")
	}
	// Empty responses: zero base, zero shares, no crash.
	tab, err := ins.Tabulate("color", nil)
	if err != nil || tab.Share("red") != 0 {
		t.Fatalf("empty tabulation: %v %v", tab, err)
	}
}

func TestNumericValues(t *testing.T) {
	ins := testInstrument(t)
	rs := sampleResponses(t, ins)
	vals, ws, err := ins.NumericValues("age", rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1 || vals[0] != 40.5 || ws[0] != 1.5 {
		t.Fatalf("vals=%v ws=%v", vals, ws)
	}
	// Likert extraction.
	vals, _, err = ins.NumericValues("happy", rs)
	if err != nil || len(vals) != 2 {
		t.Fatalf("likert vals=%v err=%v", vals, err)
	}
	if _, _, err := ins.NumericValues("color", rs); err == nil {
		t.Fatal("choice question accepted")
	}
	if _, _, err := ins.NumericValues("nope", rs); err == nil {
		t.Fatal("unknown question accepted")
	}
}

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

// Property: JSON round-trip preserves arbitrary valid numeric answers.
func TestQuickJSONNumericRoundTrip(t *testing.T) {
	ins := testInstrument(t)
	f := func(v float64, rating uint8) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		age := math.Mod(math.Abs(v), 120)
		r := NewResponse("q", 2024)
		r.SetChoice("color", "green")
		r.SetRating("happy", int(rating%5)+1)
		r.SetValue("age", age)
		var buf bytes.Buffer
		if err := ins.WriteJSON(&buf, []*Response{r}); err != nil {
			return false
		}
		out, err := ins.ReadJSON(&buf)
		if err != nil || len(out) != 1 {
			return false
		}
		return out[0].Value("age") == age && out[0].Rating("happy") == r.Rating("happy")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
