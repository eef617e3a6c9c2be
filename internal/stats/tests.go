package stats

import (
	"fmt"
	"math"
	"sort"
)

// MannWhitneyResult reports the U statistic (for the first sample), the
// normal-approximation z with tie correction, and the two-sided p-value.
type MannWhitneyResult struct {
	U float64
	Z float64
	P float64
}

// MannWhitneyU runs the two-sided Mann–Whitney U (Wilcoxon rank-sum)
// test with the normal approximation and tie correction. Both samples
// need at least one observation; the approximation is flagged as exact
// enough for n1+n2 >= 20, which every rcpt use site satisfies.
func MannWhitneyU(xs, ys []float64) (MannWhitneyResult, error) {
	n1, n2 := len(xs), len(ys)
	if n1 == 0 || n2 == 0 {
		return MannWhitneyResult{}, ErrEmpty
	}
	all := make([]float64, 0, n1+n2)
	all = append(all, xs...)
	all = append(all, ys...)
	ranks := Ranks(all)
	r1 := 0.0
	for i := 0; i < n1; i++ {
		r1 += ranks[i]
	}
	u1 := r1 - float64(n1)*float64(n1+1)/2
	n := float64(n1 + n2)
	mu := float64(n1) * float64(n2) / 2
	// Tie correction to the variance.
	tieTerm := 0.0
	sorted := make([]float64, len(all))
	copy(sorted, all)
	sort.Float64s(sorted)
	i := 0
	for i < len(sorted) {
		j := i
		for j+1 < len(sorted) && sorted[j+1] == sorted[i] {
			j++
		}
		t := float64(j - i + 1)
		tieTerm += t*t*t - t
		i = j + 1
	}
	sigma2 := float64(n1) * float64(n2) / 12 * ((n + 1) - tieTerm/(n*(n-1)))
	if sigma2 <= 0 {
		// All observations identical: no evidence of difference.
		return MannWhitneyResult{U: u1, Z: 0, P: 1}, nil
	}
	// Continuity correction.
	z := (u1 - mu)
	switch {
	case z > 0.5:
		z -= 0.5
	case z < -0.5:
		z += 0.5
	default:
		z = 0
	}
	z /= math.Sqrt(sigma2)
	p := 2 * (1 - NormalCDF(math.Abs(z)))
	if p > 1 {
		p = 1
	}
	return MannWhitneyResult{U: u1, Z: z, P: p}, nil
}

// BHAdjust applies the Benjamini–Hochberg step-up procedure, returning
// adjusted p-values (q-values) in the same order as the input. Inputs
// must lie in [0, 1].
func BHAdjust(ps []float64) ([]float64, error) {
	n := len(ps)
	if n == 0 {
		return nil, ErrEmpty
	}
	for i, p := range ps {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return nil, fmt.Errorf("stats: p-value %g at index %d out of [0,1]", p, i)
		}
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return ps[idx[a]] < ps[idx[b]] })
	adj := make([]float64, n)
	minSoFar := 1.0
	for rank := n - 1; rank >= 0; rank-- {
		i := idx[rank]
		q := ps[i] * float64(n) / float64(rank+1)
		if q < minSoFar {
			minSoFar = q
		}
		adj[i] = minSoFar
	}
	return adj, nil
}

// CohenH returns Cohen's h effect size for the difference between two
// proportions (arcsine-transformed), the conventional effect size for
// adoption-rate deltas.
func CohenH(p1, p2 float64) (float64, error) {
	if p1 < 0 || p1 > 1 || p2 < 0 || p2 > 1 {
		return 0, fmt.Errorf("stats: Cohen's h needs proportions in [0,1], got %g, %g", p1, p2)
	}
	return 2*math.Asin(math.Sqrt(p1)) - 2*math.Asin(math.Sqrt(p2)), nil
}
