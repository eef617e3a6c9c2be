package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, tc := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {0.1, 1.4},
	} {
		got, err := Quantile(xs, tc.q)
		if err != nil || !almostEq(got, tc.want, 1e-12) {
			t.Fatalf("q=%g got %g want %g err=%v", tc.q, got, tc.want, err)
		}
	}
	if _, err := Quantile(xs, 1.5); err == nil {
		t.Fatal("quantile accepted q>1")
	}
	if _, err := Quantile(nil, 0.5); err != ErrEmpty {
		t.Fatal("quantile of empty accepted")
	}
	// Input must not be modified.
	in := []float64{3, 1, 2}
	_, _ = Quantile(in, 0.5)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 10 || s.Min != 1 || s.Max != 10 || !almostEq(s.Mean, 5.5, 1e-12) {
		t.Fatalf("bad summary %+v", s)
	}
	if !almostEq(s.P50, 5.5, 1e-12) {
		t.Fatalf("median %g", s.P50)
	}
	if s.P25 > s.P50 || s.P50 > s.P75 || s.P75 > s.P90 || s.P90 > s.P95 || s.P95 > s.P99 {
		t.Fatalf("quantiles not monotone: %+v", s)
	}
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatal("expected ErrEmpty")
	}
}

func TestECDF(t *testing.T) {
	pts, probs, err := ECDF([]float64{3, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0] != 1 || pts[2] != 3 {
		t.Fatalf("points %v", pts)
	}
	if !almostEq(probs[2], 1, 1e-12) || !almostEq(probs[0], 1.0/3, 1e-12) {
		t.Fatalf("probs %v", probs)
	}
	if _, _, err := ECDF(nil); err != ErrEmpty {
		t.Fatal("expected ErrEmpty")
	}
}

func TestRanksTies(t *testing.T) {
	got := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranks %v want %v", got, want)
		}
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestQuickQuantileMonotone(t *testing.T) {
	f := func(raw []float64, qa, qb uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q1 := float64(qa%101) / 100
		q2 := float64(qb%101) / 100
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		v1, err1 := Quantile(xs, q1)
		v2, err2 := Quantile(xs, q2)
		if err1 != nil || err2 != nil {
			return false
		}
		sorted := make([]float64, len(xs))
		copy(sorted, xs)
		sort.Float64s(sorted)
		return v1 <= v2 && v1 >= sorted[0] && v2 <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
