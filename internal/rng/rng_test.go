package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("draw %d: %d != %d", i, got, want)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided on %d of 100 draws", same)
	}
}

func TestNewFromStringStable(t *testing.T) {
	a := NewFromString("cohort-2024")
	b := NewFromString("cohort-2024")
	c := NewFromString("cohort-2011")
	if a.Uint64() != b.Uint64() {
		t.Fatal("same name gave different streams")
	}
	if a.Uint64() == c.Uint64() {
		t.Fatal("different names gave same stream")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// Parent and child streams should not be trivially equal.
	equal := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			equal++
		}
	}
	if equal > 0 {
		t.Fatalf("parent/child streams matched on %d of 100 draws", equal)
	}
}

func TestSplitDeterministic(t *testing.T) {
	c1 := New(7).Split()
	c2 := New(7).Split()
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("split children diverged at draw %d", i)
		}
	}
}

func TestSplitNamedDoesNotAdvanceParent(t *testing.T) {
	p1 := New(9)
	p2 := New(9)
	_ = p1.SplitNamed("jobs")
	for i := 0; i < 10; i++ {
		if p1.Uint64() != p2.Uint64() {
			t.Fatal("SplitNamed advanced the parent stream")
		}
	}
}

func TestSplitNamedDistinct(t *testing.T) {
	p := New(9)
	a := p.SplitNamed("a")
	b := p.SplitNamed("b")
	a2 := New(9).SplitNamed("a")
	if a.Uint64() == b.Uint64() {
		t.Fatal("named splits 'a' and 'b' coincide")
	}
	a = New(9).SplitNamed("a")
	for i := 0; i < 50; i++ {
		if a.Uint64() != a2.Uint64() {
			t.Fatal("named split not reproducible")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(4)
	for n := 1; n < 50; n++ {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUnbiasedish(t *testing.T) {
	// Chi-square goodness of fit on 10 buckets; loose bound.
	r := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	expected := float64(draws) / n
	chi2 := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		chi2 += d * d / expected
	}
	// 9 dof, p=0.001 critical value ~27.9.
	if chi2 > 27.9 {
		t.Fatalf("uniformity chi2=%.2f too high; counts=%v", chi2, counts)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(6)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean %.4f too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance %.4f too far from 1", variance)
	}
}

func TestPoissonMean(t *testing.T) {
	r := New(10)
	for _, lambda := range []float64{0.5, 3, 12, 80} {
		const n = 50000
		sum := 0
		for i := 0; i < n; i++ {
			sum += r.Poisson(lambda)
		}
		mean := float64(sum) / n
		if math.Abs(mean-lambda) > 0.05*lambda+0.05 {
			t.Fatalf("poisson(%g) mean %.3f", lambda, mean)
		}
	}
}

func TestPoissonNonPositive(t *testing.T) {
	r := New(1)
	if r.Poisson(0) != 0 || r.Poisson(-3) != 0 {
		t.Fatal("Poisson with non-positive lambda should be 0")
	}
}

func TestLogNormalPositive(t *testing.T) {
	r := New(12)
	for i := 0; i < 10000; i++ {
		if v := r.LogNormal(1, 0.8); v <= 0 {
			t.Fatalf("lognormal produced %g", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(100, 1.1)
	r := New(13)
	counts := make([]int, 100)
	const draws = 100000
	for i := 0; i < draws; i++ {
		counts[z.Rank(r)]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("zipf rank 0 count %d not above rank 50 count %d", counts[0], counts[50])
	}
	// Monotone-ish on average: head must dominate tail.
	head, tail := 0, 0
	for i := 0; i < 10; i++ {
		head += counts[i]
	}
	for i := 90; i < 100; i++ {
		tail += counts[i]
	}
	if head < tail*5 {
		t.Fatalf("zipf head %d not dominating tail %d", head, tail)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	z := NewZipf(10, 0)
	r := New(14)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[z.Rank(r)]++
	}
	for i, c := range counts {
		if c < 8000 || c > 12000 {
			t.Fatalf("s=0 zipf not uniform: bucket %d = %d", i, c)
		}
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := New(15)
	xs := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
	Shuffle(r, xs)
	seen := map[int]bool{}
	for _, x := range xs {
		seen[x] = true
	}
	if len(seen) != 9 {
		t.Fatalf("shuffle lost elements: %v", xs)
	}
}

func TestSample(t *testing.T) {
	r := New(16)
	xs := []string{"a", "b", "c", "d", "e"}
	got := Sample(r, xs, 3)
	if len(got) != 3 {
		t.Fatalf("sample size %d", len(got))
	}
	seen := map[string]bool{}
	for _, g := range got {
		if seen[g] {
			t.Fatalf("sample repeated %q", g)
		}
		seen[g] = true
	}
	if got := Sample(r, xs, 0); got != nil {
		t.Fatalf("Sample k=0 should be nil, got %v", got)
	}
	if got := Sample(r, xs, 99); len(got) != 5 {
		t.Fatalf("Sample k>len should return all, got %d", len(got))
	}
}

// Property: splitting at different points yields reproducible streams.
func TestQuickSplitReproducible(t *testing.T) {
	f := func(seed uint64, pre uint8) bool {
		a := New(seed)
		b := New(seed)
		for i := 0; i < int(pre); i++ {
			a.Uint64()
			b.Uint64()
		}
		ca, cb := a.Split(), b.Split()
		for i := 0; i < 16; i++ {
			if ca.Uint64() != cb.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Uint64n always in range for any positive bound.
func TestQuickUint64nRange(t *testing.T) {
	r := New(99)
	f := func(n uint64) bool {
		if n == 0 {
			n = 1
		}
		v := r.Uint64n(n)
		return v < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: Range stays within bounds.
func TestQuickRange(t *testing.T) {
	r := New(100)
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		lo, hi := a, b
		if hi < lo {
			lo, hi = hi, lo
		}
		if math.IsInf(hi-lo, 0) {
			return true // span overflows float64; out of contract
		}
		v := r.Range(lo, hi)
		return v >= lo && (v < hi || lo == hi)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkNorm(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Norm()
	}
	_ = sink
}
