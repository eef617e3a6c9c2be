package stats

import (
	"fmt"
	"sort"
)

// Inequality measures for resource-concentration analysis ("the top 10%
// of users consume most of the core-hours").

// Gini returns the Gini coefficient of non-negative values: 0 for
// perfect equality, approaching 1 as one observation takes everything.
// Uses the sorted-rank formula G = (2 Σ i·x_i)/(n Σ x_i) − (n+1)/n.
func Gini(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if sorted[0] < 0 {
		return 0, fmt.Errorf("stats: Gini needs non-negative values, got %g", sorted[0])
	}
	n := float64(len(sorted))
	var sum, weighted float64
	for i, x := range sorted {
		sum += x
		weighted += float64(i+1) * x
	}
	if sum == 0 {
		return 0, nil // everyone has nothing: perfectly equal
	}
	return 2*weighted/(n*sum) - (n+1)/n, nil
}

// Lorenz returns the Lorenz curve of non-negative values as matched
// population-share and value-share points (both starting at 0 and
// ending at 1), suitable for plotting.
func Lorenz(xs []float64) (popShare, valueShare []float64, err error) {
	if len(xs) == 0 {
		return nil, nil, ErrEmpty
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if sorted[0] < 0 {
		return nil, nil, fmt.Errorf("stats: Lorenz needs non-negative values, got %g", sorted[0])
	}
	total := 0.0
	for _, x := range sorted {
		total += x
	}
	n := float64(len(sorted))
	popShare = make([]float64, len(sorted)+1)
	valueShare = make([]float64, len(sorted)+1)
	cum := 0.0
	for i, x := range sorted {
		cum += x
		popShare[i+1] = float64(i+1) / n
		if total > 0 {
			valueShare[i+1] = cum / total
		} else {
			valueShare[i+1] = popShare[i+1] // degenerate: equality line
		}
	}
	return popShare, valueShare, nil
}

// TopShare returns the fraction of the total held by the top q fraction
// of observations (e.g. q=0.1 for "the top 10%").
func TopShare(xs []float64, q float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if q <= 0 || q > 1 {
		return 0, fmt.Errorf("stats: TopShare q=%g out of (0,1]", q)
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if sorted[0] < 0 {
		return 0, fmt.Errorf("stats: TopShare needs non-negative values")
	}
	total := 0.0
	for _, x := range sorted {
		total += x
	}
	if total == 0 {
		return 0, nil
	}
	k := int(float64(len(sorted))*q + 0.5)
	if k < 1 {
		k = 1
	}
	top := 0.0
	for _, x := range sorted[len(sorted)-k:] {
		top += x
	}
	return top / total, nil
}
