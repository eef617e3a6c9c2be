package survey

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// jsonAnswer is the wire form of an Answer tagged with its kind so the
// decoder can rebuild the payload without consulting the instrument.
type jsonAnswer struct {
	Kind    string   `json:"kind"`
	Choice  string   `json:"choice,omitempty"`
	Choices []string `json:"choices,omitempty"`
	Rating  int      `json:"rating,omitempty"`
	Value   float64  `json:"value,omitempty"`
	Text    string   `json:"text,omitempty"`
}

// jsonResponse is the wire form of a Response.
type jsonResponse struct {
	ID      string                `json:"id"`
	Cohort  int                   `json:"cohort"`
	Weight  float64               `json:"weight"`
	Answers map[string]jsonAnswer `json:"answers"`
}

// WriteJSON streams responses as newline-delimited JSON, one response
// per line — the standard interchange format for survey exports.
func (ins *Instrument) WriteJSON(w io.Writer, responses []*Response) error {
	enc := json.NewEncoder(w)
	for _, r := range responses {
		jr := jsonResponse{ID: r.ID, Cohort: r.Cohort, Weight: r.Weight, Answers: map[string]jsonAnswer{}}
		for id, a := range r.Answers {
			q, ok := ins.Question(id)
			if !ok {
				return fmt.Errorf("survey: response %q answers unknown question %q", r.ID, id)
			}
			ja := jsonAnswer{Kind: q.Kind.String()}
			switch q.Kind {
			case SingleChoice:
				ja.Choice = a.Choice
			case MultiChoice:
				ja.Choices = a.Choices
			case Likert:
				ja.Rating = a.Rating
			case Numeric:
				ja.Value = a.Value
			case FreeText:
				ja.Text = a.Text
			}
			jr.Answers[id] = ja
		}
		if err := enc.Encode(jr); err != nil {
			return fmt.Errorf("survey: encoding response %q: %w", r.ID, err)
		}
	}
	return nil
}

// DecodeJSON parses newline-delimited JSON responses without
// validating them against the instrument's answer rules; it fails only
// on malformed JSON, answers to unknown questions, or kind mismatches
// (payloads that cannot be represented at all). Callers that need
// per-response validation verdicts — the serving layer's POST
// /v1/responses endpoint — decode first and run Validate per response;
// ReadJSON composes the two for the fail-fast ingestion path.
func (ins *Instrument) DecodeJSON(r io.Reader) ([]*Response, error) {
	dec := json.NewDecoder(r)
	var out []*Response
	line := 0
	for dec.More() {
		line++
		var jr jsonResponse
		if err := dec.Decode(&jr); err != nil {
			return nil, fmt.Errorf("survey: line %d: %w", line, err)
		}
		resp := &Response{ID: jr.ID, Cohort: jr.Cohort, Weight: jr.Weight, Answers: map[string]Answer{}}
		for id, ja := range jr.Answers {
			q, ok := ins.Question(id)
			if !ok {
				return nil, fmt.Errorf("survey: line %d: unknown question %q", line, id)
			}
			if ja.Kind != q.Kind.String() {
				return nil, fmt.Errorf("survey: line %d: question %q kind %q, instrument says %q",
					line, id, ja.Kind, q.Kind)
			}
			switch q.Kind {
			case SingleChoice:
				resp.SetChoice(id, ja.Choice)
			case MultiChoice:
				resp.SetChoices(id, ja.Choices)
			case Likert:
				resp.SetRating(id, ja.Rating)
			case Numeric:
				resp.SetValue(id, ja.Value)
			case FreeText:
				resp.SetText(id, ja.Text)
			}
		}
		out = append(out, resp)
	}
	return out, nil
}

// ReadJSON parses newline-delimited JSON responses and validates each
// against the instrument. It fails on the first malformed line or
// invalid response, reporting the line number.
func (ins *Instrument) ReadJSON(r io.Reader) ([]*Response, error) {
	out, err := ins.DecodeJSON(r)
	if err != nil {
		return nil, err
	}
	for i, resp := range out {
		if errs := ins.Validate(resp); len(errs) > 0 {
			return nil, fmt.Errorf("survey: line %d: %v", i+1, errs[0])
		}
	}
	return out, nil
}

// WriteCSV writes responses as a flat CSV: id, cohort, weight, then one
// column per question. Multi-choice cells are "|"-separated; the writer
// rejects options containing the separator rather than corrupting data.
func (ins *Instrument) WriteCSV(w io.Writer, responses []*Response) error {
	cols := append([]string{"id", "cohort", "weight"}, ins.IDs()...)
	if err := writeCSVRow(w, cols); err != nil {
		return err
	}
	for _, r := range responses {
		row := []string{r.ID, strconv.Itoa(r.Cohort), strconv.FormatFloat(r.Weight, 'g', -1, 64)}
		for _, q := range ins.Questions {
			a, ok := r.Answers[q.ID]
			if !ok {
				row = append(row, "")
				continue
			}
			switch q.Kind {
			case SingleChoice:
				row = append(row, a.Choice)
			case MultiChoice:
				for _, c := range a.Choices {
					if strings.Contains(c, "|") {
						return fmt.Errorf("survey: option %q contains the multi-choice separator", c)
					}
				}
				row = append(row, strings.Join(a.Choices, "|"))
			case Likert:
				row = append(row, strconv.Itoa(a.Rating))
			case Numeric:
				row = append(row, strconv.FormatFloat(a.Value, 'g', -1, 64))
			case FreeText:
				row = append(row, a.Text)
			}
		}
		if err := writeCSVRow(w, row); err != nil {
			return err
		}
	}
	return nil
}

// writeCSVRow writes one RFC-4180 row, quoting fields that need it.
func writeCSVRow(w io.Writer, fields []string) error {
	var b strings.Builder
	for i, f := range fields {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(f, ",\"\n\r") {
			b.WriteByte('"')
			b.WriteString(strings.ReplaceAll(f, `"`, `""`))
			b.WriteByte('"')
		} else {
			b.WriteString(f)
		}
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// Tabulation summarizes one choice question over a response set:
// weighted counts per option plus the weighted base (number of
// respondents asked and answering).
type Tabulation struct {
	QuestionID string
	Counts     map[string]float64
	Base       float64
	RawBase    int
}

// Share returns the weighted proportion selecting option (0 if the base
// is empty).
func (t Tabulation) Share(option string) float64 {
	if t.Base == 0 {
		return 0
	}
	return t.Counts[option] / t.Base
}

// Options returns option labels sorted by descending weighted count,
// ties broken alphabetically — the order tables print in.
func (t Tabulation) Options() []string {
	opts := make([]string, 0, len(t.Counts))
	for o := range t.Counts {
		opts = append(opts, o)
	}
	sort.Slice(opts, func(a, b int) bool {
		ca, cb := t.Counts[opts[a]], t.Counts[opts[b]]
		if ca != cb {
			return ca > cb
		}
		return opts[a] < opts[b]
	})
	return opts
}

// Tabulate computes the weighted option counts for a single- or
// multi-choice question over responses. Unanswered respondents are
// excluded from the base; for multi-choice the base is respondents, not
// selections, so shares are "% of respondents selecting X".
func (ins *Instrument) Tabulate(qid string, responses []*Response) (Tabulation, error) {
	q, ok := ins.Question(qid)
	if !ok {
		return Tabulation{}, fmt.Errorf("survey: unknown question %q", qid)
	}
	if q.Kind != SingleChoice && q.Kind != MultiChoice {
		return Tabulation{}, fmt.Errorf("survey: Tabulate needs a choice question, %q is %s", qid, q.Kind)
	}
	t := Tabulation{QuestionID: qid, Counts: map[string]float64{}}
	for _, o := range q.Options {
		t.Counts[o] = 0
	}
	for _, r := range responses {
		a, answered := r.Answers[qid]
		if !answered {
			continue
		}
		w := r.Weight
		t.Base += w
		t.RawBase++
		switch q.Kind {
		case SingleChoice:
			t.Counts[a.Choice] += w
		case MultiChoice:
			for _, c := range a.Choices {
				t.Counts[c] += w
			}
		}
	}
	return t, nil
}

// NumericValues extracts the answered values of a numeric question,
// paired with their weights.
func (ins *Instrument) NumericValues(qid string, responses []*Response) (values, weights []float64, err error) {
	q, ok := ins.Question(qid)
	if !ok {
		return nil, nil, fmt.Errorf("survey: unknown question %q", qid)
	}
	if q.Kind != Numeric && q.Kind != Likert {
		return nil, nil, fmt.Errorf("survey: NumericValues needs numeric or Likert, %q is %s", qid, q.Kind)
	}
	for _, r := range responses {
		a, answered := r.Answers[qid]
		if !answered {
			continue
		}
		v := a.Value
		if q.Kind == Likert {
			v = float64(a.Rating)
		}
		values = append(values, v)
		weights = append(weights, r.Weight)
	}
	return values, weights, nil
}
