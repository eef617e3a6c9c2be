// Package stats implements the statistical machinery the rcpt study
// pipeline needs: descriptive statistics, contingency-table tests,
// confidence intervals, rank tests, effect sizes, and multiple-comparison
// correction. Everything is implemented from scratch on the standard
// library so results are reproducible with no external dependencies.
//
// Conventions: functions that cannot produce a meaningful answer for
// their input (empty data, zero variance where variance is required)
// return an error rather than NaN, except where NaN is the established
// statistical convention and is documented.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned when a computation needs at least one observation.
var ErrEmpty = errors.New("stats: empty data")

// Quantile returns the q-th quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics (type-7, the R/NumPy default).
// xs need not be sorted; it is not modified.
func Quantile(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q < 0 || q > 1 {
		return 0, fmt.Errorf("stats: quantile %g out of [0,1]", q)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return quantileSorted(sorted, q), nil
}

// quantileSorted computes the type-7 quantile of pre-sorted data.
func quantileSorted(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	h := q * float64(n-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= n {
		return sorted[n-1]
	}
	frac := h - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Median returns the 0.5 quantile.
func Median(xs []float64) (float64, error) { return Quantile(xs, 0.5) }

// Summary holds the five-number summary plus mean, stddev and count,
// the standard descriptive block every table footnote needs.
type Summary struct {
	N             int
	Mean, Std     float64
	Min, Max      float64
	P25, P50, P75 float64
	P90, P95, P99 float64
	Sum           float64
}

// Summarize computes a Summary. Std is 0 when n < 2.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	s := Summary{
		N:   len(xs),
		Min: sorted[0],
		Max: sorted[len(sorted)-1],
		P25: quantileSorted(sorted, 0.25),
		P50: quantileSorted(sorted, 0.50),
		P75: quantileSorted(sorted, 0.75),
		P90: quantileSorted(sorted, 0.90),
		P95: quantileSorted(sorted, 0.95),
		P99: quantileSorted(sorted, 0.99),
	}
	for _, x := range xs {
		s.Sum += x
	}
	s.Mean = s.Sum / float64(s.N)
	if s.N >= 2 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	return s, nil
}

// ECDF returns the empirical CDF of xs evaluated at the sorted sample
// points: xs sorted ascending paired with cumulative probabilities
// (i+1)/n. Used directly by the CDF figures.
func ECDF(xs []float64) (points []float64, probs []float64, err error) {
	if len(xs) == 0 {
		return nil, nil, ErrEmpty
	}
	points = make([]float64, len(xs))
	copy(points, xs)
	sort.Float64s(points)
	probs = make([]float64, len(points))
	n := float64(len(points))
	for i := range probs {
		probs[i] = float64(i+1) / n
	}
	return points, probs, nil
}

// Ranks returns midranks (average rank for ties), 1-based, matching the
// order of xs.
func Ranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return xs[idx[a]] < xs[idx[b]] })
	ranks := make([]float64, n)
	i := 0
	for i < n {
		j := i
		for j+1 < n && xs[idx[j+1]] == xs[idx[i]] {
			j++
		}
		// average rank for the tie group spanning positions i..j
		avg := (float64(i+1) + float64(j+1)) / 2
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	return ranks
}
