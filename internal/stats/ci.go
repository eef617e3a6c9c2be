package stats

import (
	"fmt"
	"math"
)

// Interval is a confidence interval with its point estimate.
type Interval struct {
	Point, Lo, Hi float64
	Level         float64 // e.g. 0.95
}

// WilsonInterval returns the Wilson score interval for a binomial
// proportion: the standard interval for survey adoption rates, which
// behaves sensibly at 0% and 100% where the Wald interval collapses.
func WilsonInterval(successes, n float64, level float64) (Interval, error) {
	if n <= 0 {
		return Interval{}, fmt.Errorf("stats: Wilson interval needs n > 0, got %g", n)
	}
	if successes < 0 || successes > n {
		return Interval{}, fmt.Errorf("stats: successes %g out of [0, %g]", successes, n)
	}
	if !(level > 0 && level < 1) {
		return Interval{}, fmt.Errorf("stats: confidence level %g out of (0,1)", level)
	}
	p := successes / n
	z := NormalQuantile(1 - (1-level)/2)
	z2 := z * z
	den := 1 + z2/n
	center := (p + z2/(2*n)) / den
	half := z / den * math.Sqrt(p*(1-p)/n+z2/(4*n*n))
	lo := center - half
	hi := center + half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return Interval{Point: p, Lo: lo, Hi: hi, Level: level}, nil
}

// Contains reports whether v lies inside the interval (inclusive).
func (iv Interval) Contains(v float64) bool { return v >= iv.Lo && v <= iv.Hi }

// Width returns Hi - Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }
