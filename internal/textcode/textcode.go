// Package textcode implements the open-response coding pipeline: a
// tokenizer and normalizer and a keyword taxonomy that maps free text to
// analysis categories (with longest-phrase-first matching). This is the
// machinery that turns the survey's
// "what limits your computational research?" answers into the coded
// categories of table R-T6.
package textcode

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"unicode"
)

// Tokenize lowercases text and splits it into word tokens, treating any
// non-letter/digit rune as a separator except intra-word '-', '/', '+'
// and '.' (so "snakemake/nextflow", "c++" and "4.2" survive). Tokens are
// trimmed of leading/trailing connector punctuation.
func Tokenize(text string) []string {
	text = strings.ToLower(text)
	isWordRune := func(r rune) bool {
		return unicode.IsLetter(r) || unicode.IsDigit(r) ||
			r == '-' || r == '/' || r == '+' || r == '.'
	}
	var tokens []string
	var b strings.Builder
	flush := func() {
		if b.Len() == 0 {
			return
		}
		tok := strings.Trim(b.String(), "-/.")
		if tok != "" {
			tokens = append(tokens, tok)
		}
		b.Reset()
	}
	for _, r := range text {
		if isWordRune(r) {
			b.WriteRune(r)
		} else {
			flush()
		}
	}
	flush()
	return tokens
}

// Taxonomy maps categories to trigger phrases. Matching is done on the
// token stream: a phrase matches when its tokens appear contiguously.
// Longer phrases are tried first so "queue wait" beats "wait".
type Taxonomy struct {
	categories []string
	// phrases sorted by descending token length, each entry is
	// (tokenized phrase, category index).
	phrases []taxPhrase
}

type taxPhrase struct {
	tokens []string
	cat    int
}

// NewTaxonomy builds a taxonomy from category -> phrases. Every category
// needs at least one phrase; phrases must tokenize to at least one token
// and be unique across categories.
func NewTaxonomy(def map[string][]string) (*Taxonomy, error) {
	if len(def) == 0 {
		return nil, errors.New("textcode: empty taxonomy")
	}
	cats := make([]string, 0, len(def))
	for c := range def {
		if c == "" {
			return nil, errors.New("textcode: empty category name")
		}
		cats = append(cats, c)
	}
	sort.Strings(cats)
	t := &Taxonomy{categories: cats}
	seen := map[string]string{}
	for ci, c := range cats {
		phrases := def[c]
		if len(phrases) == 0 {
			return nil, fmt.Errorf("textcode: category %q has no phrases", c)
		}
		for _, p := range phrases {
			toks := Tokenize(p)
			if len(toks) == 0 {
				return nil, fmt.Errorf("textcode: category %q phrase %q tokenizes to nothing", c, p)
			}
			key := strings.Join(toks, " ")
			if prev, dup := seen[key]; dup {
				return nil, fmt.Errorf("textcode: phrase %q in both %q and %q", p, prev, c)
			}
			seen[key] = c
			t.phrases = append(t.phrases, taxPhrase{tokens: toks, cat: ci})
		}
	}
	sort.SliceStable(t.phrases, func(a, b int) bool {
		return len(t.phrases[a].tokens) > len(t.phrases[b].tokens)
	})
	return t, nil
}

// Categories returns the sorted category names.
func (t *Taxonomy) Categories() []string { return t.categories }

// Code returns the set of categories whose phrases match the text, in
// sorted order. A text can code to multiple categories; no match returns
// nil.
func (t *Taxonomy) Code(text string) []string {
	toks := Tokenize(text)
	if len(toks) == 0 {
		return nil
	}
	matched := map[int]bool{}
	for _, p := range t.phrases {
		if matched[p.cat] {
			continue
		}
		if containsPhrase(toks, p.tokens) {
			matched[p.cat] = true
		}
	}
	if len(matched) == 0 {
		return nil
	}
	out := make([]string, 0, len(matched))
	for ci := range matched {
		out = append(out, t.categories[ci])
	}
	sort.Strings(out)
	return out
}

// CodeAll codes every text and returns per-category counts plus the
// number of texts that matched nothing (the "other" bucket every coding
// exercise must report).
func (t *Taxonomy) CodeAll(texts []string) (counts map[string]int, uncoded int) {
	counts = make(map[string]int, len(t.categories))
	for _, c := range t.categories {
		counts[c] = 0
	}
	for _, txt := range texts {
		cats := t.Code(txt)
		if len(cats) == 0 {
			uncoded++
			continue
		}
		for _, c := range cats {
			counts[c]++
		}
	}
	return counts, uncoded
}

func containsPhrase(toks, phrase []string) bool {
	if len(phrase) > len(toks) {
		return false
	}
outer:
	for i := 0; i+len(phrase) <= len(toks); i++ {
		for j, p := range phrase {
			if toks[i+j] != p {
				continue outer
			}
		}
		return true
	}
	return false
}

// BottleneckTaxonomy is the coding frame for the QBottleneck free-text
// item, aligned with the population generator's phrase bank.
func BottleneckTaxonomy() *Taxonomy {
	t, err := NewTaxonomy(map[string][]string{
		"compute capacity": {
			"compute time", "queue wait", "gpu hours", "cluster", "simulations take",
		},
		"software engineering": {
			"legacy code", "no tests", "dependency", "environment problems",
			"porting", "codebase",
		},
		"people and training": {
			"software training", "graduated", "hiring", "learn better tools",
			"research software engineers",
		},
		"data management": {
			"datasets", "data cleaning", "i/o", "sharing data", "storing",
		},
	})
	if err != nil {
		panic("textcode: bottleneck taxonomy invalid: " + err.Error())
	}
	return t
}
