package weighting

import (
	"math"
	"testing"

	"repro/internal/population"
	"repro/internal/rng"
	"repro/internal/survey"
)

// tinyInstrument builds a 2-question instrument for hand-checkable
// raking tests.
func tinyInstrument(t *testing.T) *survey.Instrument {
	t.Helper()
	ins, err := survey.NewInstrument("tiny", []survey.Question{
		{ID: "g", Kind: survey.SingleChoice, Options: []string{"a", "b"}},
		{ID: "h", Kind: survey.SingleChoice, Options: []string{"x", "y"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ins
}

func makeResp(id, g, h string) *survey.Response {
	r := survey.NewResponse(id, 2024)
	r.SetChoice("g", g)
	r.SetChoice("h", h)
	return r
}

func TestRakeSingleMarginExact(t *testing.T) {
	_ = tinyInstrument(t)
	// Sample: 3 "a", 1 "b". Target: 50/50.
	rs := []*survey.Response{
		makeResp("1", "a", "x"), makeResp("2", "a", "x"),
		makeResp("3", "a", "y"), makeResp("4", "b", "y"),
	}
	res, err := Rake(rs, []Margin{{QuestionID: "g", Target: map[string]float64{"a": 0.5, "b": 0.5}}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || res.Iterations != 1 {
		t.Fatalf("single margin should converge in 1 iteration: %+v", res)
	}
	// Weighted share of "a" must be 0.5.
	wa, total := 0.0, 0.0
	for _, r := range rs {
		total += r.Weight
		if r.Choice("g") == "a" {
			wa += r.Weight
		}
	}
	if math.Abs(wa/total-0.5) > 1e-9 {
		t.Fatalf("a-share %.6f", wa/total)
	}
	// Weights average 1.
	if math.Abs(total/4-1) > 1e-9 {
		t.Fatalf("mean weight %.6f", total/4)
	}
	// "b" respondent carries 3x the weight of each "a" respondent.
	if math.Abs(rs[3].Weight/rs[0].Weight-3) > 1e-9 {
		t.Fatalf("weight ratio %g", rs[3].Weight/rs[0].Weight)
	}
}

func TestRakeTwoMarginsConverges(t *testing.T) {
	rs := []*survey.Response{
		makeResp("1", "a", "x"), makeResp("2", "a", "x"), makeResp("3", "a", "y"),
		makeResp("4", "b", "y"), makeResp("5", "b", "x"), makeResp("6", "a", "y"),
	}
	margins := []Margin{
		{QuestionID: "g", Target: map[string]float64{"a": 0.6, "b": 0.4}},
		{QuestionID: "h", Target: map[string]float64{"x": 0.3, "y": 0.7}},
	}
	res, err := Rake(rs, margins, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if res.MaxDeviation > 1e-6 {
		t.Fatalf("deviation %g", res.MaxDeviation)
	}
	// Deviation trace is non-increasing overall (IPF converges here).
	first := res.DeviationTrace[0]
	last := res.DeviationTrace[len(res.DeviationTrace)-1]
	if last > first {
		t.Fatalf("trace rose: %v", res.DeviationTrace)
	}
}

func TestRakeErrors(t *testing.T) {
	rs := []*survey.Response{makeResp("1", "a", "x"), makeResp("2", "b", "y")}
	good := []Margin{{QuestionID: "g", Target: map[string]float64{"a": 0.5, "b": 0.5}}}
	if _, err := Rake(nil, good, Options{}); err == nil {
		t.Fatal("no responses accepted")
	}
	if _, err := Rake(rs, nil, Options{}); err == nil {
		t.Fatal("no margins accepted")
	}
	if _, err := Rake(rs, []Margin{{QuestionID: "", Target: map[string]float64{"a": 1}}}, Options{}); err == nil {
		t.Fatal("empty margin ID accepted")
	}
	if _, err := Rake(rs, []Margin{{QuestionID: "g", Target: map[string]float64{"a": 0.7, "b": 0.7}}}, Options{}); err == nil {
		t.Fatal("non-normalized target accepted")
	}
	if _, err := Rake(rs, []Margin{{QuestionID: "g", Target: map[string]float64{"a": 1.0, "b": 0.0}}}, Options{}); err == nil {
		t.Fatal("zero target accepted")
	}
	// Unanswered margin question.
	incomplete := survey.NewResponse("3", 2024)
	incomplete.SetChoice("g", "a")
	if _, err := Rake([]*survey.Response{incomplete}, []Margin{
		{QuestionID: "h", Target: map[string]float64{"x": 0.5, "y": 0.5}},
	}, Options{}); err == nil {
		t.Fatal("missing answer accepted")
	}
	// Category in sample missing from target.
	if _, err := Rake(rs, []Margin{{QuestionID: "g", Target: map[string]float64{"a": 0.5, "zz": 0.5}}}, Options{}); err == nil {
		t.Fatal("unknown sample category accepted")
	}
	// Target category with no respondents.
	onlyA := []*survey.Response{makeResp("1", "a", "x"), makeResp("2", "a", "y")}
	if _, err := Rake(onlyA, good, Options{}); err == nil {
		t.Fatal("empty target category accepted")
	}
	// Non-positive starting weight.
	bad := makeResp("1", "a", "x")
	bad.Weight = 0
	if _, err := Rake([]*survey.Response{bad, makeResp("2", "b", "x")}, good, Options{}); err == nil {
		t.Fatal("zero weight accepted")
	}
}

func TestRakeTrimming(t *testing.T) {
	// Heavily skewed sample: 19 "a", 1 "b", target 50/50 → the "b"
	// respondent would get weight ~10; trim to 3x mean.
	rs := make([]*survey.Response, 0, 20)
	for i := 0; i < 19; i++ {
		rs = append(rs, makeResp(string(rune('A'+i)), "a", "x"))
	}
	rs = append(rs, makeResp("Z", "b", "y"))
	margins := []Margin{{QuestionID: "g", Target: map[string]float64{"a": 0.5, "b": 0.5}}}
	res, err := Rake(rs, margins, Options{TrimRatio: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.MaxWeight > 3+1e-6 {
		t.Fatalf("max weight %g exceeds trim", res.MaxWeight)
	}
	// Trimming must be honest: deviation reopened and reported.
	if res.Converged {
		t.Fatalf("trimmed result claims convergence with deviation %g", res.MaxDeviation)
	}
}

func TestKishEffectiveN(t *testing.T) {
	rs := []*survey.Response{makeResp("1", "a", "x"), makeResp("2", "b", "y")}
	n, err := KishEffectiveN(rs)
	if err != nil || math.Abs(n-2) > 1e-12 {
		t.Fatalf("equal weights effective n=%g err=%v", n, err)
	}
	rs[0].Weight = 3
	n, _ = KishEffectiveN(rs)
	if n >= 2 || n <= 1 {
		t.Fatalf("unequal weights effective n=%g", n)
	}
	if _, err := KishEffectiveN(nil); err == nil {
		t.Fatal("empty accepted")
	}
}

// Integration: rake a synthetic cohort back to its frame and verify the
// weighted field shares match the frame while unweighted ones do not.
func TestRakeCorrectsCohortBias(t *testing.T) {
	m := population.Model2024()
	g, err := population.NewGenerator(m)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := g.GenerateRespondents(rng.New(17), 2500)
	if err != nil {
		t.Fatal(err)
	}
	ins := g.Instrument()

	unweightedCS, _ := ins.Tabulate(survey.QField, rs)
	biasBefore := math.Abs(unweightedCS.Share("computer science") - m.FieldShare["computer science"])

	res, err := Rake(rs, FrameMargins(m.FieldShare, m.CareerShare), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("raking did not converge: %+v", res)
	}
	weighted, _ := ins.Tabulate(survey.QField, rs)
	biasAfter := math.Abs(weighted.Share("computer science") - m.FieldShare["computer science"])
	if biasAfter > 1e-6 {
		t.Fatalf("post-rake deviation %g", biasAfter)
	}
	if biasBefore < 0.01 {
		t.Fatalf("test fixture uninformative: pre-rake bias only %g", biasBefore)
	}
	if res.EffectiveN >= float64(len(rs)) {
		t.Fatalf("effective n %g not below raw n %d", res.EffectiveN, len(rs))
	}
	if res.DesignEffect <= 1 {
		t.Fatalf("design effect %g should exceed 1", res.DesignEffect)
	}
}

func TestRestrictToObserved(t *testing.T) {
	rs := []*survey.Response{makeResp("1", "a", "x"), makeResp("2", "a", "y")}
	m := Margin{QuestionID: "g", Target: map[string]float64{"a": 0.5, "b": 0.5}}
	// Only "a" observed: fewer than 2 categories remain -> error.
	if _, err := RestrictToObserved(m, rs); err == nil {
		t.Fatal("single observed category accepted")
	}
	rs = append(rs, makeResp("3", "b", "x"))
	got, err := RestrictToObserved(m, rs)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Target) != 2 {
		t.Fatalf("target %v", got.Target)
	}
	// Three-category margin with one unobserved collapses and renormalizes.
	m3 := Margin{QuestionID: "g", Target: map[string]float64{"a": 0.25, "b": 0.25, "zz": 0.5}}
	got, err = RestrictToObserved(m3, rs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Target["a"]-0.5) > 1e-12 || math.Abs(got.Target["b"]-0.5) > 1e-12 {
		t.Fatalf("renormalized %v", got.Target)
	}
	// Unanswered question.
	blank := survey.NewResponse("z", 2024)
	if _, err := RestrictToObserved(m, []*survey.Response{blank}); err == nil {
		t.Fatal("unanswered margin accepted")
	}
	// Raking with the restricted margin converges.
	if _, err := Rake(rs, []Margin{got}, Options{}); err != nil {
		t.Fatal(err)
	}
}
