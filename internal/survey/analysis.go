package survey

import (
	"fmt"
)

// CrossTab is a weighted two-way table of single-choice answers: rows
// from one question, columns from another, with margins. It feeds both
// chi-square tests (via Flatten) and conditional-share tables.
type CrossTab struct {
	RowQ, ColQ string
	RowCats    []string
	ColCats    []string
	cells      map[[2]string]float64
	Base       float64
	RawBase    int
}

// CrossTabulate builds the weighted cross-tabulation of two
// single-choice questions over respondents answering both.
func (ins *Instrument) CrossTabulate(rowQ, colQ string, responses []*Response) (*CrossTab, error) {
	rq, ok := ins.Question(rowQ)
	if !ok {
		return nil, fmt.Errorf("survey: unknown question %q", rowQ)
	}
	cq, ok := ins.Question(colQ)
	if !ok {
		return nil, fmt.Errorf("survey: unknown question %q", colQ)
	}
	if rq.Kind != SingleChoice || cq.Kind != SingleChoice {
		return nil, fmt.Errorf("survey: cross-tab needs single-choice questions, got %s and %s", rq.Kind, cq.Kind)
	}
	ct := &CrossTab{
		RowQ: rowQ, ColQ: colQ,
		RowCats: append([]string(nil), rq.Options...),
		ColCats: append([]string(nil), cq.Options...),
		cells:   map[[2]string]float64{},
	}
	for _, r := range responses {
		rv, cv := r.Choice(rowQ), r.Choice(colQ)
		if rv == "" || cv == "" {
			continue
		}
		ct.cells[[2]string{rv, cv}] += r.Weight
		ct.Base += r.Weight
		ct.RawBase++
	}
	return ct, nil
}

// At returns the weighted count in cell (row, col).
func (ct *CrossTab) At(row, col string) float64 { return ct.cells[[2]string{row, col}] }

// RowShare returns P(col | row): the weighted share of row-category
// respondents giving the column answer. Zero when the row is empty.
func (ct *CrossTab) RowShare(row, col string) float64 {
	total := 0.0
	for _, c := range ct.ColCats {
		total += ct.At(row, c)
	}
	if total == 0 {
		return 0
	}
	return ct.At(row, col) / total
}

// Flatten returns row-major counts for the stats package's contingency
// tests, dropping empty rows and columns (which would otherwise make
// expected counts degenerate). The kept category labels are returned
// alongside.
func (ct *CrossTab) Flatten() (rows, cols []string, counts []float64) {
	for _, r := range ct.RowCats {
		total := 0.0
		for _, c := range ct.ColCats {
			total += ct.At(r, c)
		}
		if total > 0 {
			rows = append(rows, r)
		}
	}
	for _, c := range ct.ColCats {
		total := 0.0
		for _, r := range ct.RowCats {
			total += ct.At(r, c)
		}
		if total > 0 {
			cols = append(cols, c)
		}
	}
	counts = make([]float64, 0, len(rows)*len(cols))
	for _, r := range rows {
		for _, c := range cols {
			counts = append(counts, ct.At(r, c))
		}
	}
	return rows, cols, counts
}

// LikertSummary describes a Likert question's weighted distribution.
type LikertSummary struct {
	QuestionID string
	Scale      int
	Counts     []float64 // weighted count per point, index 0 = rating 1
	Base       float64
	RawBase    int
	Mean       float64
	// TopBox is the weighted share at the highest two points, the usual
	// headline for "received substantial training".
	TopBox float64
}

// SummarizeLikert computes the weighted distribution of a Likert item.
func (ins *Instrument) SummarizeLikert(qid string, responses []*Response) (LikertSummary, error) {
	q, ok := ins.Question(qid)
	if !ok {
		return LikertSummary{}, fmt.Errorf("survey: unknown question %q", qid)
	}
	if q.Kind != Likert {
		return LikertSummary{}, fmt.Errorf("survey: %q is %s, need Likert", qid, q.Kind)
	}
	s := LikertSummary{QuestionID: qid, Scale: q.Scale, Counts: make([]float64, q.Scale)}
	weightedSum := 0.0
	for _, r := range responses {
		a, answered := r.Answers[qid]
		if !answered {
			continue
		}
		if a.Rating < 1 || a.Rating > q.Scale {
			return LikertSummary{}, fmt.Errorf("survey: response %q has invalid rating %d", r.ID, a.Rating)
		}
		s.Counts[a.Rating-1] += r.Weight
		s.Base += r.Weight
		s.RawBase++
		weightedSum += float64(a.Rating) * r.Weight
	}
	if s.Base > 0 {
		s.Mean = weightedSum / s.Base
		s.TopBox = (s.Counts[q.Scale-1] + s.Counts[q.Scale-2]) / s.Base
	}
	return s, nil
}
