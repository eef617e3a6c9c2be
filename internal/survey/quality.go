package survey

import (
	"fmt"
	"sort"
)

// Data-quality screening: the cleaning pass between raw form export and
// analysis. Each rule flags suspicious responses; flagged respondents
// are reported, not silently dropped — the study decides the policy
// (the rcpt pipeline excludes hard failures and footnotes soft ones).

// Severity grades a quality flag.
type Severity int

// Severity levels.
const (
	// Soft flags warrant a footnote but keep the response.
	Soft Severity = iota
	// Hard flags indicate an unusable or fraudulent response.
	Hard
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	if s == Hard {
		return "hard"
	}
	return "soft"
}

// Flag is one quality finding on one response.
type Flag struct {
	ResponseID string
	Rule       string
	Severity   Severity
	Detail     string
}

// Rule inspects one response (with access to the instrument) and
// returns zero or more flags.
type Rule struct {
	Name     string
	Severity Severity
	Check    func(ins *Instrument, r *Response) (bool, string)
}

// QualityReport aggregates a screening run.
type QualityReport struct {
	Flags     []Flag
	HardIDs   map[string]bool // responses with >= 1 hard flag
	Responses int
}

// CleanShare returns the fraction of responses with no flags at all.
func (qr QualityReport) CleanShare() float64 {
	if qr.Responses == 0 {
		return 0
	}
	flagged := map[string]bool{}
	for _, f := range qr.Flags {
		flagged[f.ResponseID] = true
	}
	return 1 - float64(len(flagged))/float64(qr.Responses)
}

// Screen runs rules plus the built-in duplicate-ID check over the
// responses. Flags are ordered by response ID, rule name, then detail,
// so their order follows their content, not the order of the responses:
// responses sharing an ID can trip one rule with different details.
func Screen(ins *Instrument, responses []*Response, rules []Rule) QualityReport {
	qr := QualityReport{HardIDs: map[string]bool{}, Responses: len(responses)}
	seen := map[string]int{}
	for _, r := range responses {
		seen[r.ID]++
	}
	for _, r := range responses {
		if seen[r.ID] > 1 {
			qr.Flags = append(qr.Flags, Flag{
				ResponseID: r.ID, Rule: "duplicate-id", Severity: Hard,
				Detail: fmt.Sprintf("id appears %d times", seen[r.ID]),
			})
			qr.HardIDs[r.ID] = true
		}
		for _, rule := range rules {
			hit, detail := rule.Check(ins, r)
			if !hit {
				continue
			}
			qr.Flags = append(qr.Flags, Flag{
				ResponseID: r.ID, Rule: rule.Name, Severity: rule.Severity, Detail: detail,
			})
			if rule.Severity == Hard {
				qr.HardIDs[r.ID] = true
			}
		}
	}
	sort.Slice(qr.Flags, func(a, b int) bool {
		fa, fb := &qr.Flags[a], &qr.Flags[b]
		if fa.ResponseID != fb.ResponseID {
			return fa.ResponseID < fb.ResponseID
		}
		if fa.Rule != fb.Rule {
			return fa.Rule < fb.Rule
		}
		return fa.Detail < fb.Detail
	})
	return qr
}

// DropHard returns the responses with no hard flags, preserving order.
func DropHard(responses []*Response, qr QualityReport) []*Response {
	out := make([]*Response, 0, len(responses))
	for _, r := range responses {
		if !qr.HardIDs[r.ID] {
			out = append(out, r)
		}
	}
	return out
}

// CanonicalRules returns the rcpt instrument's screening rules:
//
//   - experience-career: years coding wildly inconsistent with career
//     stage (an undergraduate reporting 30 years) — hard.
//   - gpu-consistency: GPU share above 50% with no GPU/parallelism
//     answer implying GPU access — soft (laptop GPUs exist).
//   - hours-outlier: weekly cluster hours above 5000 (more than a
//     300-node-day every week, likely a unit error) — soft.
//   - everything-everywhere: selected every option on two or more
//     multi-selects (straight-lining) — hard.
func CanonicalRules() []Rule {
	return []Rule{
		{
			Name: "experience-career", Severity: Hard,
			Check: func(ins *Instrument, r *Response) (bool, string) {
				if !r.Has(QYearsCoding) || !r.Has(QCareer) {
					return false, ""
				}
				years := r.Value(QYearsCoding)
				maxPlausible := map[string]float64{
					"undergraduate":    12,
					"graduate student": 20,
					"postdoc":          25,
				}
				if limit, ok := maxPlausible[r.Choice(QCareer)]; ok && years > limit {
					return true, fmt.Sprintf("%s reporting %.0f years of research software experience", r.Choice(QCareer), years)
				}
				return false, ""
			},
		},
		{
			Name: "gpu-consistency", Severity: Soft,
			Check: func(ins *Instrument, r *Response) (bool, string) {
				if !r.Has(QGPUShare) {
					return false, ""
				}
				share := r.Value(QGPUShare)
				if share <= 50 {
					return false, ""
				}
				if r.Selected(QParallelism, "gpu") || r.Selected(QParallelism, "cluster batch jobs") {
					return false, ""
				}
				return true, fmt.Sprintf("gpu share %.0f%% without gpu or cluster usage", share)
			},
		},
		{
			Name: "hours-outlier", Severity: Soft,
			Check: func(ins *Instrument, r *Response) (bool, string) {
				if !r.Has(QClusterHours) {
					return false, ""
				}
				if h := r.Value(QClusterHours); h > 5000 {
					return true, fmt.Sprintf("%.0f cluster hours per week", h)
				}
				return false, ""
			},
		},
		{
			Name: "everything-everywhere", Severity: Hard,
			Check: func(ins *Instrument, r *Response) (bool, string) {
				full := 0
				for _, qid := range []string{QLanguages, QParallelism, QPractices} {
					q, ok := ins.Question(qid)
					if !ok || !r.Has(qid) {
						continue
					}
					if len(r.Choices(qid)) == len(q.Options) {
						full++
					}
				}
				if full >= 2 {
					return true, fmt.Sprintf("selected every option on %d multi-selects", full)
				}
				return false, ""
			},
		},
	}
}
