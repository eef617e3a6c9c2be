package textcode

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/population"
	"repro/internal/rng"
	"repro/internal/survey"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"Hello, World!", "hello world"},
		{"C++ and c-code", "c++ and c-code"},
		{"snakemake/nextflow rocks", "snakemake/nextflow rocks"},
		{"version 4.2 (beta)", "version 4.2 beta"},
		{"trailing-dash- -leading", "trailing-dash leading"},
		{"", ""},
		{"...", ""},
		{"I/O dominates", "i/o dominates"},
	}
	for _, c := range cases {
		got := strings.Join(Tokenize(c.in), " ")
		if got != c.want {
			t.Fatalf("Tokenize(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestTaxonomyValidation(t *testing.T) {
	if _, err := NewTaxonomy(nil); err == nil {
		t.Fatal("empty taxonomy accepted")
	}
	if _, err := NewTaxonomy(map[string][]string{"": {"x"}}); err == nil {
		t.Fatal("empty category accepted")
	}
	if _, err := NewTaxonomy(map[string][]string{"a": {}}); err == nil {
		t.Fatal("phrase-less category accepted")
	}
	if _, err := NewTaxonomy(map[string][]string{"a": {"!!!"}}); err == nil {
		t.Fatal("untokenizable phrase accepted")
	}
	if _, err := NewTaxonomy(map[string][]string{"a": {"same phrase"}, "b": {"same phrase"}}); err == nil {
		t.Fatal("duplicate phrase accepted")
	}
}

func TestTaxonomyCode(t *testing.T) {
	tax, err := NewTaxonomy(map[string][]string{
		"hardware": {"gpu", "queue wait"},
		"people":   {"training"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := tax.Code("We need more GPU time"); len(got) != 1 || got[0] != "hardware" {
		t.Fatalf("got %v", got)
	}
	if got := tax.Code("the queue wait is long and we lack training"); len(got) != 2 {
		t.Fatalf("got %v", got)
	}
	if got := tax.Code("nothing relevant here"); got != nil {
		t.Fatalf("got %v", got)
	}
	if got := tax.Code(""); got != nil {
		t.Fatalf("got %v", got)
	}
	// Phrase must be contiguous: "queue ... wait" apart does not match.
	if got := tax.Code("the queue makes us wait"); got != nil {
		t.Fatalf("non-contiguous phrase matched: %v", got)
	}
}

func TestCodeAll(t *testing.T) {
	tax, _ := NewTaxonomy(map[string][]string{
		"x": {"alpha"},
		"y": {"beta"},
	})
	counts, uncoded := tax.CodeAll([]string{"alpha beta", "alpha", "gamma", ""})
	if counts["x"] != 2 || counts["y"] != 1 || uncoded != 2 {
		t.Fatalf("counts=%v uncoded=%d", counts, uncoded)
	}
}

func TestBottleneckTaxonomyCoversGeneratorPhrases(t *testing.T) {
	// Every phrase the population generator can emit must code to at
	// least one category — the loop the study depends on.
	tax := BottleneckTaxonomy()
	g, err := population.NewGenerator(population.Model2024())
	if err != nil {
		t.Fatal(err)
	}
	rs, err := g.GenerateRespondents(rng.New(5), 400)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		text := r.Text(survey.QBottleneck)
		if text == "" {
			t.Fatalf("respondent %s has no bottleneck text", r.ID)
		}
		if cats := tax.Code(text); len(cats) == 0 {
			t.Fatalf("uncodable generator phrase: %q", text)
		}
	}
}

// Property: tokenization output contains no separators or uppercase and
// coding never panics on arbitrary input.
func TestQuickTokenizeClean(t *testing.T) {
	tax := BottleneckTaxonomy()
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" || strings.ToLower(tok) != tok {
				return false
			}
			if strings.ContainsAny(tok, " \t\n,!?") {
				return false
			}
		}
		_ = tax.Code(s) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
