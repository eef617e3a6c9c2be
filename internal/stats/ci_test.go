package stats

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestWilsonIntervalKnown(t *testing.T) {
	// R binom::binom.wilson(25, 100): lower 0.1754521, upper 0.3430446.
	iv, err := WilsonInterval(25, 100, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(iv.Point, 0.25, 1e-12) {
		t.Fatalf("point=%g", iv.Point)
	}
	if !almostEq(iv.Lo, 0.1754521, 1e-5) || !almostEq(iv.Hi, 0.3430446, 1e-5) {
		t.Fatalf("interval [%g,%g]", iv.Lo, iv.Hi)
	}
}

func TestWilsonEdges(t *testing.T) {
	// Zero successes: interval starts at 0 but has positive width.
	iv, err := WilsonInterval(0, 50, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if iv.Lo != 0 || iv.Hi <= 0 {
		t.Fatalf("zero-success interval [%g,%g]", iv.Lo, iv.Hi)
	}
	// All successes: ends at 1.
	iv, _ = WilsonInterval(50, 50, 0.95)
	if iv.Hi != 1 || iv.Lo >= 1 {
		t.Fatalf("all-success interval [%g,%g]", iv.Lo, iv.Hi)
	}
	if _, err := WilsonInterval(5, 0, 0.95); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := WilsonInterval(5, 4, 0.95); err == nil {
		t.Fatal("successes>n accepted")
	}
	if _, err := WilsonInterval(1, 10, 1.5); err == nil {
		t.Fatal("level>1 accepted")
	}
}

// Property: Wilson interval always brackets the point estimate and stays
// inside [0,1].
func TestQuickWilson(t *testing.T) {
	f := func(s, n uint16) bool {
		trials := float64(n%1000) + 1
		succ := float64(s) * trials / 65535
		iv, err := WilsonInterval(succ, trials, 0.95)
		if err != nil {
			return false
		}
		return iv.Lo >= 0 && iv.Hi <= 1 && iv.Lo <= iv.Point+1e-12 && iv.Hi >= iv.Point-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Empirical coverage check: Wilson 95% intervals should cover the true p
// close to 95% of the time.
func TestWilsonCoverage(t *testing.T) {
	r := rng.New(31)
	trueP := 0.3
	n := 200
	covered := 0
	const trials = 2000
	for trial := 0; trial < trials; trial++ {
		succ := 0
		for i := 0; i < n; i++ {
			if r.Bool(trueP) {
				succ++
			}
		}
		iv, err := WilsonInterval(float64(succ), float64(n), 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if iv.Contains(trueP) {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.92 || rate > 0.98 {
		t.Fatalf("coverage %.3f outside [0.92, 0.98]", rate)
	}
}
