package rng

import (
	"fmt"
	"sort"
)

// Alias is a Walker alias-method sampler over a fixed categorical
// distribution: O(n) construction, O(1) per draw. It is the workhorse
// behind every "pick a language / field / job class with these
// probabilities" decision in the synthetic generators.
type Alias struct {
	prob  []float64
	alias []int
	n     int
}

// NewAlias builds an alias sampler from non-negative weights. Weights do
// not need to sum to 1. It returns an error if weights is empty, contains
// a negative or non-finite value, or sums to zero.
func NewAlias(weights []float64) (*Alias, error) {
	n := len(weights)
	if n == 0 {
		return nil, fmt.Errorf("rng: alias sampler needs at least one weight")
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 || w != w || w > 1e308 {
			return nil, fmt.Errorf("rng: alias weight %d is invalid: %g", i, w)
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("rng: alias weights sum to zero")
	}
	a := &Alias{
		prob:  make([]float64, n),
		alias: make([]int, n),
		n:     n,
	}
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] = scaled[l] + scaled[s] - 1
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		a.prob[i] = 1
		a.alias[i] = i
	}
	for _, i := range small {
		a.prob[i] = 1
		a.alias[i] = i
	}
	return a, nil
}

// MustAlias is NewAlias that panics on error; for static tables known to
// be valid at construction time.
func MustAlias(weights []float64) *Alias {
	a, err := NewAlias(weights)
	if err != nil {
		panic(err)
	}
	return a
}

// Draw samples a category index in O(1).
func (a *Alias) Draw(r *RNG) int {
	i := r.Intn(a.n)
	if r.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}

// Categorical couples an alias sampler with string labels, the common
// case in survey and trace generation.
type Categorical struct {
	labels []string
	alias  *Alias
}

// NewCategorical builds a labeled sampler from a label→weight map. To keep
// construction deterministic regardless of map iteration order, labels are
// sorted before the alias table is built.
func NewCategorical(weights map[string]float64) (*Categorical, error) {
	if len(weights) == 0 {
		return nil, fmt.Errorf("rng: categorical needs at least one label")
	}
	labels := make([]string, 0, len(weights))
	for l := range weights {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	ws := make([]float64, len(labels))
	for i, l := range labels {
		ws[i] = weights[l]
	}
	a, err := NewAlias(ws)
	if err != nil {
		return nil, err
	}
	return &Categorical{labels: labels, alias: a}, nil
}

// MustCategorical is NewCategorical that panics on error.
func MustCategorical(weights map[string]float64) *Categorical {
	c, err := NewCategorical(weights)
	if err != nil {
		panic(err)
	}
	return c
}

// Draw samples a label.
func (c *Categorical) Draw(r *RNG) string {
	return c.labels[c.alias.Draw(r)]
}

// Labels returns the sorted label set (shared slice; do not mutate).
func (c *Categorical) Labels() []string { return c.labels }
