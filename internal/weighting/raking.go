// Package weighting implements survey post-stratification: design
// weights, raking (iterative proportional fitting) to known population
// margins, weight trimming, and effective-sample-size diagnostics.
// Raking is what lets the biased respondent pool (CS over-responds,
// faculty under-respond) produce estimates representative of the
// institutional frame.
package weighting

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/survey"
)

// Margin is one raking dimension: a question whose single-choice answer
// classifies respondents, and the target population share per category.
type Margin struct {
	QuestionID string
	Target     map[string]float64 // category -> population share, sums to 1
}

// validate checks the margin's shares.
func (m Margin) validate() error {
	if m.QuestionID == "" {
		return errors.New("weighting: margin has empty question ID")
	}
	if len(m.Target) < 2 {
		return fmt.Errorf("weighting: margin %q needs >= 2 categories", m.QuestionID)
	}
	// Sum shares in sorted-key order: float addition is not associative,
	// so folding in map iteration order would make the tolerance check
	// below depend on the run (the maporder lint rule).
	cats := make([]string, 0, len(m.Target))
	for cat := range m.Target {
		cats = append(cats, cat)
	}
	sort.Strings(cats)
	sum := 0.0
	for _, cat := range cats {
		share := m.Target[cat]
		if share < 0 {
			return fmt.Errorf("weighting: margin %q category %q has negative share %g", m.QuestionID, cat, share)
		}
		if share == 0 {
			return fmt.Errorf("weighting: margin %q category %q has zero target; drop it instead", m.QuestionID, cat)
		}
		sum += share
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("weighting: margin %q targets sum to %g, want 1", m.QuestionID, sum)
	}
	return nil
}

// Options configures Rake.
type Options struct {
	MaxIterations int     // default 100
	Tolerance     float64 // max abs deviation of achieved vs target share; default 1e-6
	TrimRatio     float64 // post-raking cap on weight / mean weight; 0 disables
}

// Result reports raking diagnostics.
type Result struct {
	Iterations   int
	Converged    bool
	MaxDeviation float64 // worst margin deviation at exit
	EffectiveN   float64 // Kish effective sample size after raking
	DesignEffect float64 // n / EffectiveN
	MinWeight    float64
	MaxWeight    float64
	// DeviationTrace records MaxDeviation after each iteration, the
	// series plotted by figure R-F8.
	DeviationTrace []float64
}

// Rake adjusts the Weight field of responses in place so that weighted
// category shares match every margin's target, normalized so weights
// average 1. Respondents missing an answer to any margin question are
// an error: raking needs complete classification.
func Rake(responses []*survey.Response, margins []Margin, opt Options) (Result, error) {
	if len(responses) == 0 {
		return Result{}, errors.New("weighting: no responses")
	}
	if len(margins) == 0 {
		return Result{}, errors.New("weighting: no margins")
	}
	if opt.MaxIterations <= 0 {
		opt.MaxIterations = 100
	}
	if opt.Tolerance <= 0 {
		opt.Tolerance = 1e-6
	}
	for _, m := range margins {
		if err := m.validate(); err != nil {
			return Result{}, err
		}
	}
	// Pre-resolve each respondent's category per margin, and verify the
	// sample covers every target category (otherwise IPF cannot converge).
	cats := make([][]string, len(margins))
	for mi, m := range margins {
		cats[mi] = make([]string, len(responses))
		seen := map[string]bool{}
		for ri, r := range responses {
			c := r.Choice(m.QuestionID)
			if c == "" {
				return Result{}, fmt.Errorf("weighting: response %q missing margin answer %q", r.ID, m.QuestionID)
			}
			if _, ok := m.Target[c]; !ok {
				return Result{}, fmt.Errorf("weighting: response %q category %q absent from margin %q targets", r.ID, c, m.QuestionID)
			}
			cats[mi][ri] = c
			seen[c] = true
		}
		for cat := range m.Target {
			if !seen[cat] {
				return Result{}, fmt.Errorf("weighting: margin %q category %q has no respondents", m.QuestionID, cat)
			}
		}
	}
	// Start from current weights (design weights if the caller set them,
	// else 1 from NewResponse).
	w := make([]float64, len(responses))
	for i, r := range responses {
		if r.Weight <= 0 {
			return Result{}, fmt.Errorf("weighting: response %q has non-positive weight %g", r.ID, r.Weight)
		}
		w[i] = r.Weight
	}

	res := Result{}
	for iter := 1; iter <= opt.MaxIterations; iter++ {
		for mi, m := range margins {
			// Current weighted share per category.
			total := 0.0
			byCat := map[string]float64{}
			for ri := range responses {
				total += w[ri]
				byCat[cats[mi][ri]] += w[ri]
			}
			// Multiply each respondent's weight by target/current.
			for ri := range responses {
				c := cats[mi][ri]
				cur := byCat[c] / total
				w[ri] *= m.Target[c] / cur
			}
		}
		dev := maxDeviation(w, cats, margins)
		res.DeviationTrace = append(res.DeviationTrace, dev)
		res.Iterations = iter
		res.MaxDeviation = dev
		if dev <= opt.Tolerance {
			res.Converged = true
			break
		}
	}

	// Normalize to mean 1, then trim if requested (trimming can reopen a
	// small deviation; report post-trim deviation honestly).
	normalize(w)
	if opt.TrimRatio > 0 {
		// Trim and renormalize to a fixed point: renormalizing after a
		// trim raises weights again, so repeat until the cap holds at
		// mean weight 1 (bounded; each pass strictly shrinks the excess).
		limit := opt.TrimRatio
		for pass := 0; pass < 100; pass++ {
			over := false
			for i := range w {
				if w[i] > limit {
					w[i] = limit
					over = true
				}
			}
			normalize(w)
			if !over {
				break
			}
			stillOver := false
			for i := range w {
				if w[i] > limit*(1+1e-9) {
					stillOver = true
					break
				}
			}
			if !stillOver {
				break
			}
		}
		res.MaxDeviation = maxDeviation(w, cats, margins)
		res.Converged = res.MaxDeviation <= opt.Tolerance
	}

	// Diagnostics.
	sum, sumsq := 0.0, 0.0
	res.MinWeight, res.MaxWeight = math.Inf(1), math.Inf(-1)
	for _, wi := range w {
		sum += wi
		sumsq += wi * wi
		res.MinWeight = math.Min(res.MinWeight, wi)
		res.MaxWeight = math.Max(res.MaxWeight, wi)
	}
	res.EffectiveN = sum * sum / sumsq
	res.DesignEffect = float64(len(w)) / res.EffectiveN

	for i, r := range responses {
		r.Weight = w[i]
	}
	return res, nil
}

// maxDeviation returns the worst |achieved - target| share across all
// margin categories.
func maxDeviation(w []float64, cats [][]string, margins []Margin) float64 {
	worst := 0.0
	for mi, m := range margins {
		total := 0.0
		byCat := map[string]float64{}
		for ri, wi := range w {
			total += wi
			byCat[cats[mi][ri]] += wi
		}
		for cat, target := range m.Target {
			d := math.Abs(byCat[cat]/total - target)
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// normalize scales weights to mean 1.
func normalize(w []float64) {
	sum := 0.0
	for _, wi := range w {
		sum += wi
	}
	mean := sum / float64(len(w))
	for i := range w {
		w[i] /= mean
	}
}

// KishEffectiveN returns the Kish effective sample size of the current
// weights without modifying anything.
func KishEffectiveN(responses []*survey.Response) (float64, error) {
	if len(responses) == 0 {
		return 0, errors.New("weighting: no responses")
	}
	sum, sumsq := 0.0, 0.0
	for _, r := range responses {
		if r.Weight < 0 {
			return 0, fmt.Errorf("weighting: response %q has negative weight", r.ID)
		}
		sum += r.Weight
		sumsq += r.Weight * r.Weight
	}
	if sumsq == 0 {
		return 0, errors.New("weighting: all weights zero")
	}
	return sum * sum / sumsq, nil
}

// FrameMargins builds the standard rcpt raking margins (field and career
// stage) from a population model's frame shares.
func FrameMargins(fieldShare, careerShare map[string]float64) []Margin {
	return []Margin{
		{QuestionID: survey.QField, Target: fieldShare},
		{QuestionID: survey.QCareer, Target: careerShare},
	}
}

// RestrictToObserved returns a copy of the margin with categories that
// have no respondents removed and the remaining targets renormalized to
// sum to 1 — the standard small-sample fallback (collapsing empty
// strata) that keeps raking feasible on small cohorts. An error is
// returned when fewer than two observed categories remain or when the
// question is unanswered by everyone.
func RestrictToObserved(m Margin, responses []*survey.Response) (Margin, error) {
	observed := map[string]bool{}
	for _, r := range responses {
		if c := r.Choice(m.QuestionID); c != "" {
			observed[c] = true
		}
	}
	if len(observed) == 0 {
		return Margin{}, fmt.Errorf("weighting: nobody answered %q", m.QuestionID)
	}
	// Iterate categories in sorted order: summing in map order would make
	// the normalization differ across calls at the ulp level, breaking
	// bit-for-bit reproducibility of the downstream weights.
	cats := make([]string, 0, len(m.Target))
	for cat := range m.Target {
		if observed[cat] {
			cats = append(cats, cat)
		}
	}
	sort.Strings(cats)
	if len(cats) < 2 {
		return Margin{}, fmt.Errorf("weighting: margin %q has %d observed categories, need >= 2", m.QuestionID, len(cats))
	}
	total := 0.0
	for _, cat := range cats {
		total += m.Target[cat]
	}
	if total <= 0 {
		return Margin{}, fmt.Errorf("weighting: margin %q observed targets sum to %g", m.QuestionID, total)
	}
	kept := make(map[string]float64, len(cats))
	for _, cat := range cats {
		kept[cat] = m.Target[cat] / total
	}
	return Margin{QuestionID: m.QuestionID, Target: kept}, nil
}
