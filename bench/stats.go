package main

import (
	"sort"
	"time"
)

// tailLadderPM is the set of tail percentiles a timing may report, in
// per mille so the ten-samples-beyond test is exact integer arithmetic.
var tailLadderPM = []int{750, 900, 950, 999}

// tailPercentile returns the highest ladder percentile (per mille) that
// has at least ten of n samples beyond it, and false when even p75 has
// fewer. Each workload fixes its tail from the count it completes in a
// standard window, so the reported percentile never flips between runs.
func tailPercentile(n int) (int, bool) {
	for i := len(tailLadderPM) - 1; i >= 0; i-- {
		pm := tailLadderPM[i]
		if n*(1000-pm) >= 10*1000 {
			return pm, true
		}
	}
	return 0, false
}

// percentile returns the p-th per-mille percentile of sorted by linear
// interpolation between the closest ranks; 0 for no samples.
func percentile(sorted []float64, pm int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := float64(pm) / 1000 * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// millis converts latencies to sorted milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// mean returns the arithmetic mean of xs; 0 for no samples.
func mean(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return ratio(total, float64(len(xs)))
}

// ratio is a/b, or 0 when b is 0, so an idle counter never reports NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianDuration returns the median of ds in seconds.
func medianDuration(ds []time.Duration) float64 {
	ms := millis(ds)
	return percentile(ms, 500) / 1000
}
