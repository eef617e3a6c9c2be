package stats

import (
	"errors"
	"fmt"
	"math"
)

// Contingency is an r×c table of observed counts, the core object for
// "did practice X differ between cohorts / fields" questions.
type Contingency struct {
	Rows, Cols int
	counts     []float64 // row-major; float64 so weighted counts work
}

// NewContingency allocates an r×c table of zeros.
func NewContingency(rows, cols int) (*Contingency, error) {
	if rows < 2 || cols < 2 {
		return nil, fmt.Errorf("stats: contingency needs >= 2x2, got %dx%d", rows, cols)
	}
	return &Contingency{Rows: rows, Cols: cols, counts: make([]float64, rows*cols)}, nil
}

// FromCounts builds a table from row-major integer counts. The shape is
// checked against the counts before anything is allocated, with rows
// bounded by len(counts)/cols first so that rows×cols cannot overflow.
func FromCounts(rows, cols int, counts []float64) (*Contingency, error) {
	if cols > 0 && (rows > len(counts)/cols || rows*cols != len(counts)) {
		return nil, fmt.Errorf("stats: %d counts for %dx%d table", len(counts), rows, cols)
	}
	t, err := NewContingency(rows, cols)
	if err != nil {
		return nil, err
	}
	for i, c := range counts {
		if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return nil, fmt.Errorf("stats: invalid count %g at index %d", c, i)
		}
	}
	copy(t.counts, counts)
	return t, nil
}

// Add increments cell (r, c) by w (typically 1, or a survey weight).
func (t *Contingency) Add(r, c int, w float64) error {
	if r < 0 || r >= t.Rows || c < 0 || c >= t.Cols {
		return fmt.Errorf("stats: cell (%d,%d) out of %dx%d table", r, c, t.Rows, t.Cols)
	}
	if w < 0 {
		return fmt.Errorf("stats: negative increment %g", w)
	}
	t.counts[r*t.Cols+c] += w
	return nil
}

// At returns the count in cell (r, c).
func (t *Contingency) At(r, c int) float64 { return t.counts[r*t.Cols+c] }

// RowSum returns the marginal total of row r.
func (t *Contingency) RowSum(r int) float64 {
	s := 0.0
	for c := 0; c < t.Cols; c++ {
		s += t.At(r, c)
	}
	return s
}

// ColSum returns the marginal total of column c.
func (t *Contingency) ColSum(c int) float64 {
	s := 0.0
	for r := 0; r < t.Rows; r++ {
		s += t.At(r, c)
	}
	return s
}

// Total returns the grand total.
func (t *Contingency) Total() float64 {
	s := 0.0
	for _, v := range t.counts {
		s += v
	}
	return s
}

// ChiSquareResult carries the test statistic, degrees of freedom,
// p-value, and Cramér's V effect size.
type ChiSquareResult struct {
	Stat    float64
	DF      int
	P       float64
	CramerV float64
}

// ChiSquare runs Pearson's chi-square test of independence. It returns
// an error when any expected cell count is zero (a degenerate margin).
func (t *Contingency) ChiSquare() (ChiSquareResult, error) {
	n := t.Total()
	if n == 0 {
		return ChiSquareResult{}, errors.New("stats: chi-square on empty table")
	}
	stat := 0.0
	for r := 0; r < t.Rows; r++ {
		rs := t.RowSum(r)
		for c := 0; c < t.Cols; c++ {
			cs := t.ColSum(c)
			exp := rs * cs / n
			if exp == 0 {
				return ChiSquareResult{}, fmt.Errorf("stats: zero expected count in cell (%d,%d)", r, c)
			}
			d := t.At(r, c) - exp
			stat += d * d / exp
		}
	}
	df := (t.Rows - 1) * (t.Cols - 1)
	k := t.Rows
	if t.Cols < k {
		k = t.Cols
	}
	v := math.Sqrt(stat / (n * float64(k-1)))
	return ChiSquareResult{Stat: stat, DF: df, P: ChiSquareSF(stat, df), CramerV: v}, nil
}

// GTest runs the likelihood-ratio G-test of independence, which behaves
// better than Pearson for sparse-but-nonzero tables.
func (t *Contingency) GTest() (ChiSquareResult, error) {
	n := t.Total()
	if n == 0 {
		return ChiSquareResult{}, errors.New("stats: G-test on empty table")
	}
	g := 0.0
	for r := 0; r < t.Rows; r++ {
		rs := t.RowSum(r)
		for c := 0; c < t.Cols; c++ {
			cs := t.ColSum(c)
			exp := rs * cs / n
			if exp == 0 {
				return ChiSquareResult{}, fmt.Errorf("stats: zero expected count in cell (%d,%d)", r, c)
			}
			obs := t.At(r, c)
			if obs > 0 {
				g += obs * math.Log(obs/exp)
			}
		}
	}
	g *= 2
	df := (t.Rows - 1) * (t.Cols - 1)
	k := t.Rows
	if t.Cols < k {
		k = t.Cols
	}
	v := math.Sqrt(g / (n * float64(k-1)))
	return ChiSquareResult{Stat: g, DF: df, P: ChiSquareSF(g, df), CramerV: v}, nil
}

// Table2x2 is a 2×2 count table with the exact and effect-size methods
// that only make sense there.
type Table2x2 struct {
	A, B, C, D float64 // [A B; C D], rows = group, cols = outcome
}

// FisherExact returns the two-sided Fisher exact p-value via the
// hypergeometric distribution, summing probabilities of all tables with
// the same margins that are no more likely than the observed one.
// Counts must be non-negative integers (fractional weighted counts are
// rejected: exact tests are defined on integer counts).
func (t Table2x2) FisherExact() (float64, error) {
	a, b, c, d := t.A, t.B, t.C, t.D
	for _, v := range []float64{a, b, c, d} {
		if v < 0 || v != math.Trunc(v) {
			return 0, fmt.Errorf("stats: Fisher exact needs non-negative integer counts, got %v", t)
		}
	}
	ai, bi, ci, di := int(a), int(b), int(c), int(d)
	r1 := ai + bi
	r2 := ci + di
	c1 := ai + ci
	n := r1 + r2
	if n == 0 {
		return 0, errors.New("stats: Fisher exact on empty table")
	}
	logP := func(x int) float64 {
		// P(X = x) for hypergeometric with margins r1, r2, c1.
		return lnFactorial(r1) + lnFactorial(r2) + lnFactorial(c1) + lnFactorial(n-c1) -
			lnFactorial(n) - lnFactorial(x) - lnFactorial(r1-x) - lnFactorial(c1-x) - lnFactorial(r2-c1+x)
	}
	lo := 0
	if c1-r2 > lo {
		lo = c1 - r2
	}
	hi := r1
	if c1 < hi {
		hi = c1
	}
	obs := logP(ai)
	const slack = 1e-7 // tolerate float noise when comparing likelihoods
	p := 0.0
	for x := lo; x <= hi; x++ {
		lp := logP(x)
		if lp <= obs+slack {
			p += math.Exp(lp)
		}
	}
	if p > 1 {
		p = 1
	}
	return p, nil
}

// OddsRatio returns the sample odds ratio (A*D)/(B*C) with the
// Haldane–Anscombe 0.5 correction applied when any cell is zero, plus a
// 95% log-normal confidence interval.
func (t Table2x2) OddsRatio() (or, lo, hi float64, err error) {
	a, b, c, d := t.A, t.B, t.C, t.D
	if a < 0 || b < 0 || c < 0 || d < 0 {
		return 0, 0, 0, fmt.Errorf("stats: negative cell in %v", t)
	}
	if a+b == 0 || c+d == 0 {
		return 0, 0, 0, errors.New("stats: odds ratio with an empty row")
	}
	if a == 0 || b == 0 || c == 0 || d == 0 {
		a, b, c, d = a+0.5, b+0.5, c+0.5, d+0.5
	}
	or = (a * d) / (b * c)
	se := math.Sqrt(1/a + 1/b + 1/c + 1/d)
	z := 1.959963984540054 // qnorm(0.975)
	lo = math.Exp(math.Log(or) - z*se)
	hi = math.Exp(math.Log(or) + z*se)
	return or, lo, hi, nil
}

// Phi returns the phi coefficient (Pearson correlation of two binary
// variables) for the 2×2 table; NaN-free: returns an error when a margin
// is zero.
func (t Table2x2) Phi() (float64, error) {
	a, b, c, d := t.A, t.B, t.C, t.D
	den := (a + b) * (c + d) * (a + c) * (b + d)
	if den == 0 {
		return 0, errors.New("stats: phi undefined with a zero margin")
	}
	return (a*d - b*c) / math.Sqrt(den), nil
}

// TwoProportionZ tests H0: p1 == p2 given successes/trials for two
// groups, returning the z statistic and two-sided p-value.
func TwoProportionZ(succ1, n1, succ2, n2 float64) (z, p float64, err error) {
	if n1 <= 0 || n2 <= 0 {
		return 0, 0, fmt.Errorf("stats: two-proportion z needs positive trials, got %g and %g", n1, n2)
	}
	if succ1 < 0 || succ1 > n1 || succ2 < 0 || succ2 > n2 {
		return 0, 0, fmt.Errorf("stats: successes out of range")
	}
	p1 := succ1 / n1
	p2 := succ2 / n2
	pool := (succ1 + succ2) / (n1 + n2)
	se := math.Sqrt(pool * (1 - pool) * (1/n1 + 1/n2))
	if se == 0 {
		// Both groups all-success or all-failure: no evidence of difference.
		return 0, 1, nil
	}
	z = (p1 - p2) / se
	p = 2 * (1 - NormalCDF(math.Abs(z)))
	return z, p, nil
}
