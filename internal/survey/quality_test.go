package survey

import (
	"cmp"
	"slices"
	"strings"
	"testing"
)

func cleanCanonicalResponse(id string) *Response {
	r := NewResponse(id, 2024)
	r.SetChoice(QField, "physics")
	r.SetChoice(QCareer, "postdoc")
	r.SetValue(QYearsCoding, 8)
	r.SetChoices(QLanguages, []string{"python", "c"})
	r.SetChoices(QParallelism, []string{"gpu", "cluster batch jobs"})
	r.SetChoices(QPractices, []string{"version control"})
	r.SetChoice(QClusterUse, "weekly")
	r.SetValue(QClusterHours, 20)
	r.SetValue(QGPUShare, 40)
	r.SetRating(QTraining, 3)
	return r
}

func TestScreenCleanResponsePasses(t *testing.T) {
	ins := Canonical()
	r := cleanCanonicalResponse("ok-1")
	if errs := ins.Validate(r); len(errs) != 0 {
		t.Fatalf("fixture invalid: %v", errs)
	}
	qr := Screen(ins, []*Response{r}, CanonicalRules())
	if len(qr.Flags) != 0 {
		t.Fatalf("clean response flagged: %v", qr.Flags)
	}
	if qr.CleanShare() != 1 {
		t.Fatalf("clean share %g", qr.CleanShare())
	}
}

func TestScreenDuplicateIDs(t *testing.T) {
	ins := Canonical()
	a := cleanCanonicalResponse("dup")
	b := cleanCanonicalResponse("dup")
	qr := Screen(ins, []*Response{a, b}, nil)
	if len(qr.Flags) != 2 {
		t.Fatalf("flags %v", qr.Flags)
	}
	if !qr.HardIDs["dup"] {
		t.Fatal("duplicate not hard-flagged")
	}
	kept := DropHard([]*Response{a, b}, qr)
	if len(kept) != 0 {
		t.Fatalf("%d duplicates survived", len(kept))
	}
}

func TestExperienceCareerRule(t *testing.T) {
	ins := Canonical()
	r := cleanCanonicalResponse("kid")
	r.SetChoice(QCareer, "undergraduate")
	r.SetValue(QYearsCoding, 30)
	qr := Screen(ins, []*Response{r}, CanonicalRules())
	found := false
	for _, f := range qr.Flags {
		if f.Rule == "experience-career" && f.Severity == Hard {
			found = true
			if !strings.Contains(f.Detail, "undergraduate") {
				t.Fatalf("detail %q", f.Detail)
			}
		}
	}
	if !found {
		t.Fatalf("implausible experience not flagged: %v", qr.Flags)
	}
	// Faculty with 30 years is plausible: no flag.
	ok := cleanCanonicalResponse("prof")
	ok.SetChoice(QCareer, "faculty")
	ok.SetValue(QYearsCoding, 30)
	qr = Screen(ins, []*Response{ok}, CanonicalRules())
	if len(qr.Flags) != 0 {
		t.Fatalf("faculty flagged: %v", qr.Flags)
	}
}

func TestGPUConsistencyRule(t *testing.T) {
	ins := Canonical()
	r := cleanCanonicalResponse("gpu-liar")
	r.SetChoices(QParallelism, []string{"serial only"})
	r.SetValue(QGPUShare, 90)
	qr := Screen(ins, []*Response{r}, CanonicalRules())
	found := false
	for _, f := range qr.Flags {
		if f.Rule == "gpu-consistency" {
			found = true
			if f.Severity != Soft {
				t.Fatal("gpu-consistency should be soft")
			}
		}
	}
	if !found {
		t.Fatalf("gpu inconsistency not flagged: %v", qr.Flags)
	}
	// Soft flags do not remove the response.
	if len(DropHard([]*Response{r}, qr)) != 1 {
		t.Fatal("soft flag dropped the response")
	}
}

func TestHoursOutlierRule(t *testing.T) {
	ins := Canonical()
	r := cleanCanonicalResponse("unit-error")
	r.SetValue(QClusterHours, 30000)
	qr := Screen(ins, []*Response{r}, CanonicalRules())
	found := false
	for _, f := range qr.Flags {
		if f.Rule == "hours-outlier" {
			found = true
		}
	}
	if !found {
		t.Fatalf("hours outlier not flagged: %v", qr.Flags)
	}
}

func TestStraightLinerRule(t *testing.T) {
	ins := Canonical()
	r := cleanCanonicalResponse("speeder")
	r.SetChoices(QLanguages, Languages)
	r.SetChoices(QParallelism, ParallelismModes)
	r.SetChoices(QPractices, EngineeringPractices)
	qr := Screen(ins, []*Response{r}, CanonicalRules())
	if !qr.HardIDs["speeder"] {
		t.Fatalf("straight-liner not hard-flagged: %v", qr.Flags)
	}
	// One full multi-select alone is fine (a polyglot exists).
	poly := cleanCanonicalResponse("polyglot")
	poly.SetChoices(QLanguages, Languages)
	qr = Screen(ins, []*Response{poly}, CanonicalRules())
	for _, f := range qr.Flags {
		if f.Rule == "everything-everywhere" {
			t.Fatal("single full multi-select flagged")
		}
	}
}

func TestFlagsDeterministicOrder(t *testing.T) {
	ins := Canonical()
	a := cleanCanonicalResponse("b-resp")
	a.SetValue(QClusterHours, 30000)
	b := cleanCanonicalResponse("a-resp")
	b.SetValue(QClusterHours, 30000)
	qr := Screen(ins, []*Response{a, b}, CanonicalRules())
	if len(qr.Flags) != 2 || qr.Flags[0].ResponseID != "a-resp" {
		t.Fatalf("flags unsorted: %v", qr.Flags)
	}
}

// TestScreenOrdersTiesByDetail screens responses that share one ID and
// trip hours-outlier with different details: the flags must come out
// in (ID, rule, detail) order whatever order the responses arrive in.
func TestScreenOrdersTiesByDetail(t *testing.T) {
	ins := Canonical()
	screen := func(order []int) []Flag {
		rs := make([]*Response, len(order))
		for i, k := range order {
			rs[i] = cleanCanonicalResponse("shared")
			rs[i].SetValue(QClusterHours, float64(6000+37*k))
		}
		return Screen(ins, rs, CanonicalRules()).Flags
	}
	const n = 40
	fwd, rev := make([]int, n), make([]int, n)
	for k := range fwd {
		fwd[k], rev[k] = k, n-1-k
	}
	a, b := screen(fwd), screen(rev)
	if !slices.Equal(a, b) {
		t.Fatal("flag order depends on the order of the responses")
	}
	if !slices.IsSortedFunc(a, func(x, y Flag) int {
		return cmp.Or(strings.Compare(x.ResponseID, y.ResponseID), strings.Compare(x.Rule, y.Rule), strings.Compare(x.Detail, y.Detail))
	}) {
		t.Fatalf("flags not in (ID, rule, detail) order: %v", a)
	}
}

func TestSeverityString(t *testing.T) {
	if Soft.String() != "soft" || Hard.String() != "hard" {
		t.Fatal("severity strings")
	}
}

func TestCleanShareEmpty(t *testing.T) {
	if (QualityReport{}).CleanShare() != 0 {
		t.Fatal("empty clean share")
	}
}
