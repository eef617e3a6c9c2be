// Package survey models the study's survey instrument: typed questions,
// skip logic, a codebook, responses, and validation. It is the data
// contract between the synthetic population generator (or, for a real
// deployment, a web form export) and the analysis pipeline — analysis
// code never sees raw strings, only validated Response values.
package survey

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// QuestionKind enumerates the supported question types.
type QuestionKind int

const (
	// SingleChoice selects exactly one option.
	SingleChoice QuestionKind = iota
	// MultiChoice selects zero or more options.
	MultiChoice
	// Likert is an ordinal 1..Scale rating.
	Likert
	// Numeric is a bounded numeric answer (e.g. years of experience).
	Numeric
	// FreeText is an open response, later coded by textcode.
	FreeText
)

// String implements fmt.Stringer for diagnostics.
func (k QuestionKind) String() string {
	switch k {
	case SingleChoice:
		return "single"
	case MultiChoice:
		return "multi"
	case Likert:
		return "likert"
	case Numeric:
		return "numeric"
	case FreeText:
		return "text"
	default:
		return fmt.Sprintf("QuestionKind(%d)", int(k))
	}
}

// Question is one item on the instrument.
type Question struct {
	ID      string // stable key, e.g. "languages"
	Text    string // prompt shown to the respondent
	Kind    QuestionKind
	Options []string // for SingleChoice/MultiChoice
	Scale   int      // for Likert: number of points (e.g. 5)
	Min     float64  // for Numeric
	Max     float64  // for Numeric
	// AskIf, when non-nil, gates the question: it is asked only when the
	// predicate over earlier answers returns true (skip logic).
	AskIf func(resp *Response) bool
	// Required questions must be answered when asked.
	Required bool
}

// Instrument is an ordered questionnaire with unique question IDs.
type Instrument struct {
	Name      string
	Questions []Question
	index     map[string]int
}

// NewInstrument validates and indexes a questionnaire. Rules: IDs are
// non-empty and unique; choice questions have >= 2 unique options;
// Likert scales are >= 2 points; numeric bounds are ordered.
func NewInstrument(name string, qs []Question) (*Instrument, error) {
	if name == "" {
		return nil, fmt.Errorf("survey: instrument needs a name")
	}
	if len(qs) == 0 {
		return nil, fmt.Errorf("survey: instrument %q has no questions", name)
	}
	idx := make(map[string]int, len(qs))
	for i, q := range qs {
		if q.ID == "" {
			return nil, fmt.Errorf("survey: question %d has empty ID", i)
		}
		if strings.ContainsAny(q.ID, ",;\n") {
			return nil, fmt.Errorf("survey: question ID %q contains reserved characters", q.ID)
		}
		if _, dup := idx[q.ID]; dup {
			return nil, fmt.Errorf("survey: duplicate question ID %q", q.ID)
		}
		switch q.Kind {
		case SingleChoice, MultiChoice:
			if len(q.Options) < 2 {
				return nil, fmt.Errorf("survey: question %q needs >= 2 options", q.ID)
			}
			seen := map[string]bool{}
			for _, o := range q.Options {
				if o == "" {
					return nil, fmt.Errorf("survey: question %q has an empty option", q.ID)
				}
				if seen[o] {
					return nil, fmt.Errorf("survey: question %q repeats option %q", q.ID, o)
				}
				seen[o] = true
			}
		case Likert:
			if q.Scale < 2 {
				return nil, fmt.Errorf("survey: Likert question %q needs scale >= 2, got %d", q.ID, q.Scale)
			}
		case Numeric:
			if !(q.Max > q.Min) {
				return nil, fmt.Errorf("survey: numeric question %q needs Max > Min", q.ID)
			}
		case FreeText:
			// no extra constraints
		default:
			return nil, fmt.Errorf("survey: question %q has unknown kind %d", q.ID, q.Kind)
		}
		idx[q.ID] = i
	}
	return &Instrument{Name: name, Questions: qs, index: idx}, nil
}

// Question returns the question with the given ID.
func (ins *Instrument) Question(id string) (Question, bool) {
	i, ok := ins.index[id]
	if !ok {
		return Question{}, false
	}
	return ins.Questions[i], true
}

// IDs returns the question IDs in instrument order.
func (ins *Instrument) IDs() []string {
	out := make([]string, len(ins.Questions))
	for i, q := range ins.Questions {
		out[i] = q.ID
	}
	return out
}

// Codebook renders a human-readable description of the instrument, the
// artifact survey papers publish as an appendix.
func (ins *Instrument) Codebook() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Codebook: %s (%d questions)\n", ins.Name, len(ins.Questions))
	for i, q := range ins.Questions {
		fmt.Fprintf(&b, "%2d. [%s] %s (%s", i+1, q.ID, q.Text, q.Kind)
		if q.Required {
			b.WriteString(", required")
		}
		if q.AskIf != nil {
			b.WriteString(", conditional")
		}
		b.WriteString(")\n")
		switch q.Kind {
		case SingleChoice, MultiChoice:
			fmt.Fprintf(&b, "      options: %s\n", strings.Join(q.Options, " | "))
		case Likert:
			fmt.Fprintf(&b, "      scale: 1..%d\n", q.Scale)
		case Numeric:
			fmt.Fprintf(&b, "      range: [%g, %g]\n", q.Min, q.Max)
		}
	}
	return b.String()
}

// Answer is one validated answer; exactly one payload field is
// meaningful depending on the question kind.
type Answer struct {
	Choice  string   // SingleChoice
	Choices []string // MultiChoice (sorted, deduplicated)
	Rating  int      // Likert
	Value   float64  // Numeric
	Text    string   // FreeText
}

// Response is one respondent's record: metadata plus answers by
// question ID. Missing IDs mean the question was skipped or unanswered.
type Response struct {
	ID      string
	Cohort  int // survey year, e.g. 2011 or 2024
	Weight  float64
	Answers map[string]Answer
}

// NewResponse creates an empty response with weight 1.
func NewResponse(id string, cohort int) *Response {
	return &Response{ID: id, Cohort: cohort, Weight: 1, Answers: map[string]Answer{}}
}

// Has reports whether question id was answered.
func (r *Response) Has(id string) bool {
	_, ok := r.Answers[id]
	return ok
}

// Choice returns the single-choice answer for id ("" if unanswered).
func (r *Response) Choice(id string) string { return r.Answers[id].Choice }

// Choices returns the multi-choice answers for id (nil if unanswered).
func (r *Response) Choices(id string) []string { return r.Answers[id].Choices }

// Selected reports whether option is among the multi-choice answers
// for question id.
func (r *Response) Selected(id, option string) bool {
	for _, c := range r.Answers[id].Choices {
		if c == option {
			return true
		}
	}
	return false
}

// Rating returns the Likert rating (0 if unanswered).
func (r *Response) Rating(id string) int { return r.Answers[id].Rating }

// Value returns the numeric answer (0 if unanswered — use Has to
// distinguish).
func (r *Response) Value(id string) float64 { return r.Answers[id].Value }

// Text returns the free-text answer.
func (r *Response) Text(id string) string { return r.Answers[id].Text }

// SetChoice records a single-choice answer.
func (r *Response) SetChoice(id, choice string) { r.Answers[id] = Answer{Choice: choice} }

// SetChoices records a multi-choice answer; the slice is copied, sorted
// and deduplicated so equality and hashing are stable. No choices
// records an empty, non-nil slice.
func (r *Response) SetChoices(id string, choices []string) {
	cp := append(make([]string, 0, len(choices)), choices...)
	slices.Sort(cp)
	r.Answers[id] = Answer{Choices: slices.Compact(cp)}
}

// SetRating records a Likert answer.
func (r *Response) SetRating(id string, rating int) { r.Answers[id] = Answer{Rating: rating} }

// SetValue records a numeric answer.
func (r *Response) SetValue(id string, v float64) { r.Answers[id] = Answer{Value: v} }

// SetText records a free-text answer.
func (r *Response) SetText(id, text string) { r.Answers[id] = Answer{Text: text} }

// ValidationError describes one validation failure.
type ValidationError struct {
	ResponseID string
	QuestionID string
	Reason     string
}

func (e ValidationError) Error() string {
	return fmt.Sprintf("survey: response %q question %q: %s", e.ResponseID, e.QuestionID, e.Reason)
}

// Validate checks a response against the instrument: required questions
// answered when asked, answers legal for their kind, no answers to
// unknown or skipped questions. It returns all failures, not just the
// first.
func (ins *Instrument) Validate(r *Response) []ValidationError {
	var errs []ValidationError
	add := func(qid, reason string) {
		errs = append(errs, ValidationError{ResponseID: r.ID, QuestionID: qid, Reason: reason})
	}
	if r.Weight < 0 {
		add("", fmt.Sprintf("negative weight %g", r.Weight))
	}
	for _, q := range ins.Questions {
		asked := q.AskIf == nil || q.AskIf(r)
		ans, answered := r.Answers[q.ID]
		if !asked {
			if answered {
				add(q.ID, "answered a skipped question")
			}
			continue
		}
		if !answered {
			if q.Required {
				add(q.ID, "required question unanswered")
			}
			continue
		}
		switch q.Kind {
		case SingleChoice:
			if !containsString(q.Options, ans.Choice) {
				add(q.ID, fmt.Sprintf("choice %q not among options", ans.Choice))
			}
		case MultiChoice:
			for _, c := range ans.Choices {
				if !containsString(q.Options, c) {
					add(q.ID, fmt.Sprintf("choice %q not among options", c))
				}
			}
		case Likert:
			if ans.Rating < 1 || ans.Rating > q.Scale {
				add(q.ID, fmt.Sprintf("rating %d outside 1..%d", ans.Rating, q.Scale))
			}
		case Numeric:
			if ans.Value < q.Min || ans.Value > q.Max {
				add(q.ID, fmt.Sprintf("value %g outside [%g,%g]", ans.Value, q.Min, q.Max))
			}
		}
	}
	for id := range r.Answers {
		if _, known := ins.index[id]; !known {
			add(id, "answer to unknown question")
		}
	}
	sort.Slice(errs, func(a, b int) bool {
		if errs[a].QuestionID != errs[b].QuestionID {
			return errs[a].QuestionID < errs[b].QuestionID
		}
		return errs[a].Reason < errs[b].Reason
	})
	return errs
}

func containsString(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}
