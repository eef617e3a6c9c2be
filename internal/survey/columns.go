package survey

import (
	"fmt"
	"slices"

	"repro/internal/table"
)

// ResponseColumns is the struct-of-arrays form of survey
// responses. The fixed fields are plain columns; the per-question
// answers flatten into shared answer columns with per-row offsets, with
// question IDs and choice strings dictionary-encoded (a cohort shares a
// small instrument vocabulary). Answers are stored sorted by question
// ID so the encoding is canonical even though Response holds them in a
// map.
//
// Rows are stored and returned by value; Row materializes a fresh
// Response with its own Answers map, so column storage can never alias
// the mutable *Response views the weighting code adjusts in place.
type ResponseColumns struct {
	ids     []string
	cohorts []int32
	weights []float64

	ansOff []int32 // per row: start index into the answer columns; len = rows+1

	ansQID     []uint32
	ansChoice  []uint32
	ansChOff   []int32 // per answer: start into ansChoices; len = answers+1
	ansChoices []uint32
	ansRating  []int32
	ansValue   []float64
	ansText    []string

	qidDict table.Dict
	strDict table.Dict

	qids []string // Append's scratch: one response's question IDs, sorted
}

func (c *ResponseColumns) init() {
	if c.ansOff == nil {
		c.ansOff = append(c.ansOff, 0)
	}
	if c.ansChOff == nil {
		c.ansChOff = append(c.ansChOff, 0)
	}
}

// Append implements table.Columns. It sorts the question IDs in a
// slice the columns keep, so appending a cohort allocates no per-row
// key slice. Columns sized for n rows size their answer columns at the
// first row, for n rows that answer as many questions as it does: the
// responses of one cohort answer nearly the same number.
func (c *ResponseColumns) Append(r Response) {
	c.init()
	if len(c.ids) == 0 {
		c.growAnswers(cap(c.ids) * len(r.Answers))
	}
	c.ids = append(c.ids, r.ID)
	c.cohorts = append(c.cohorts, int32(r.Cohort))
	c.weights = append(c.weights, r.Weight)
	c.qids = c.qids[:0]
	for id := range r.Answers {
		c.qids = append(c.qids, id)
	}
	slices.Sort(c.qids)
	for _, qid := range c.qids {
		a := r.Answers[qid]
		c.ansQID = append(c.ansQID, c.qidDict.Code(qid))
		c.ansChoice = append(c.ansChoice, c.strDict.Code(a.Choice))
		for _, ch := range a.Choices {
			c.ansChoices = append(c.ansChoices, c.strDict.Code(ch))
		}
		c.ansChOff = append(c.ansChOff, int32(len(c.ansChoices)))
		c.ansRating = append(c.ansRating, int32(a.Rating))
		c.ansValue = append(c.ansValue, a.Value)
		c.ansText = append(c.ansText, a.Text)
	}
	c.ansOff = append(c.ansOff, int32(len(c.ansQID)))
}

// growAnswers makes room for n more answers, each with one choice.
func (c *ResponseColumns) growAnswers(n int) {
	c.ansQID, c.ansChoice = slices.Grow(c.ansQID, n), slices.Grow(c.ansChoice, n)
	c.ansChOff, c.ansChoices = slices.Grow(c.ansChOff, n), slices.Grow(c.ansChoices, n)
	c.ansRating, c.ansValue, c.ansText = slices.Grow(c.ansRating, n), slices.Grow(c.ansValue, n), slices.Grow(c.ansText, n)
}

// Len implements table.Columns.
func (c *ResponseColumns) Len() int { return len(c.ids) }

// Row implements table.Columns.
func (c *ResponseColumns) Row(i int) Response {
	r := Response{
		ID:      c.ids[i],
		Cohort:  int(c.cohorts[i]),
		Weight:  c.weights[i],
		Answers: map[string]Answer{},
	}
	for ai := c.ansOff[i]; ai < c.ansOff[i+1]; ai++ {
		a := Answer{
			Choice: c.strDict.Value(c.ansChoice[ai]),
			Rating: int(c.ansRating[ai]),
			Value:  c.ansValue[ai],
			Text:   c.ansText[ai],
		}
		if lo, hi := c.ansChOff[ai], c.ansChOff[ai+1]; hi > lo {
			a.Choices = make([]string, 0, hi-lo)
			for ci := lo; ci < hi; ci++ {
				a.Choices = append(a.Choices, c.strDict.Value(c.ansChoices[ci]))
			}
		}
		r.Answers[c.qidDict.Value(c.ansQID[ai])] = a
	}
	return r
}

// reset empties the columns for DecodeFrom.
func (c *ResponseColumns) reset() {
	c.ids, c.cohorts, c.weights = c.ids[:0], c.cohorts[:0], c.weights[:0]
	c.ansOff, c.ansChOff = c.ansOff[:0], c.ansChOff[:0]
	c.ansQID, c.ansChoice, c.ansChoices = c.ansQID[:0], c.ansChoice[:0], c.ansChoices[:0]
	c.ansRating, c.ansValue, c.ansText = c.ansRating[:0], c.ansValue[:0], c.ansText[:0]
	c.qidDict.Reset()
	c.strDict.Reset()
	c.init()
}

// EncodeTo implements table.Columns.
func (c *ResponseColumns) EncodeTo(w *table.Writer) error {
	c.qidDict.EncodeTo(w)
	c.strDict.EncodeTo(w)
	w.Uvarint(uint64(len(c.ids)))
	for i := range c.ids {
		w.String(c.ids[i])
		w.Varint(int64(c.cohorts[i]))
		w.Float64(c.weights[i])
		w.Uvarint(uint64(c.ansOff[i+1] - c.ansOff[i]))
	}
	w.Uvarint(uint64(len(c.ansQID)))
	for ai := range c.ansQID {
		w.Uvarint(uint64(c.ansQID[ai]))
		w.Uvarint(uint64(c.ansChoice[ai]))
		w.Uvarint(uint64(c.ansChOff[ai+1] - c.ansChOff[ai]))
		w.Varint(int64(c.ansRating[ai]))
		w.Float64(c.ansValue[ai])
		w.String(c.ansText[ai])
	}
	for _, ch := range c.ansChoices {
		w.Uvarint(uint64(ch))
	}
	return w.Err()
}

// The least a response row takes on the wire (ID length, cohort,
// 8-byte weight, answer count) and the least an answer takes (question
// and choice codes, choice count, rating, 8-byte value, text length).
const (
	responseRowMinBytes = 11
	answerMinBytes      = 13
)

// DecodeFrom implements table.Columns. Every column is sized once from
// its count, which the unread bytes bound. The per-row answer counts
// must sum to the answer count and the per-answer choice counts to the
// choices that follow, and every code must name a dictionary entry:
// Row would panic on anything else.
func (c *ResponseColumns) DecodeFrom(r *table.Reader) error {
	c.reset()
	c.qidDict.DecodeFrom(r)
	c.strDict.DecodeFrom(r)
	rows := r.Count("response rows", responseRowMinBytes)
	c.ids, c.cohorts, c.weights = table.Resize(c.ids, rows), table.Resize(c.cohorts, rows), table.Resize(c.weights, rows)
	c.ansOff = table.Resize(c.ansOff, rows+1)
	c.ansOff[0] = 0
	total := 0
	for i := 0; i < rows; i++ {
		c.ids[i] = r.String()
		c.cohorts[i] = int32(r.Varint())
		c.weights[i] = r.Float64()
		total += r.Count("answers", answerMinBytes)
		c.ansOff[i+1] = int32(total)
	}
	answers := r.Count("answers", answerMinBytes)
	if r.Err() == nil && answers != total {
		r.Fail(fmt.Errorf("survey: %d answers, rows claim %d", answers, total))
	}
	if err := r.Err(); err != nil {
		return err
	}
	c.ansQID, c.ansChoice = table.Resize(c.ansQID, answers), table.Resize(c.ansChoice, answers)
	c.ansRating, c.ansValue, c.ansText = table.Resize(c.ansRating, answers), table.Resize(c.ansValue, answers), table.Resize(c.ansText, answers)
	c.ansChOff = table.Resize(c.ansChOff, answers+1)
	c.ansChOff[0] = 0
	choices := 0
	for ai := 0; ai < answers; ai++ {
		c.ansQID[ai] = uint32(r.Uvarint())
		c.ansChoice[ai] = uint32(r.Uvarint())
		choices += r.Count("choices", 1)
		c.ansChOff[ai+1] = int32(choices)
		c.ansRating[ai] = int32(r.Varint())
		c.ansValue[ai] = r.Float64()
		c.ansText[ai] = r.String()
	}
	if r.Err() == nil && choices > r.Len() {
		r.Fail(fmt.Errorf("survey: answers claim %d choices, more than the %d unread bytes hold", choices, r.Len()))
	}
	if err := r.Err(); err != nil {
		return err
	}
	c.ansChoices = table.Resize(c.ansChoices, choices)
	for ci := range c.ansChoices {
		c.ansChoices[ci] = uint32(r.Uvarint())
	}
	if err := r.Err(); err != nil {
		return err
	}
	if err := c.qidDict.Check(c.ansQID); err != nil {
		return fmt.Errorf("survey: question IDs: %w", err)
	}
	for _, codes := range [][]uint32{c.ansChoice, c.ansChoices} {
		if err := c.strDict.Check(codes); err != nil {
			return fmt.Errorf("survey: choices: %w", err)
		}
	}
	return nil
}

// MemBytes implements table.Columns.
func (c *ResponseColumns) MemBytes() int {
	n := 0
	for _, s := range c.ids {
		n += len(s) + 16
	}
	for _, s := range c.ansText {
		n += len(s) + 16
	}
	n += len(c.cohorts)*4 + len(c.weights)*8 + len(c.ansOff)*4
	n += len(c.ansQID)*4 + len(c.ansChoice)*4 + len(c.ansChOff)*4
	n += len(c.ansChoices)*4 + len(c.ansRating)*4 + len(c.ansValue)*8
	return n + c.qidDict.MemBytes() + c.strDict.MemBytes()
}

// ResponseCodec binds Response (by value) to its columnar form.
type ResponseCodec struct{}

// NewColumns implements table.Codec. It sizes the per-row columns; the
// answer columns size themselves at the first row (see Append).
func (ResponseCodec) NewColumns(n int) table.Columns[Response] {
	return &ResponseColumns{
		ids: make([]string, 0, n), cohorts: make([]int32, 0, n), weights: make([]float64, 0, n),
		ansOff: make([]int32, 1, n+1),
	}
}

// ResponseTable is the streaming form of a cohort.
type ResponseTable = table.Table[Response]

// MaterializeResponses builds the mutable []*Response view analysis
// code works with (weighting adjusts Weight in place). One shared view
// per cohort: callers hold the result, not the table, when they need
// pointer identity.
func MaterializeResponses(t ResponseTable) ([]*Response, error) {
	out := make([]*Response, 0, t.Len(table.Exact))
	err := table.Each(t, func(r Response) bool {
		rc := r
		out = append(out, &rc)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
