package stats

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestGiniKnownValues(t *testing.T) {
	// Perfect equality.
	g, err := Gini([]float64{5, 5, 5, 5})
	if err != nil || !almostEq(g, 0, 1e-12) {
		t.Fatalf("equal gini=%g err=%v", g, err)
	}
	// One holder of everything among n=4: G = (n-1)/n = 0.75.
	g, _ = Gini([]float64{0, 0, 0, 10})
	if !almostEq(g, 0.75, 1e-12) {
		t.Fatalf("extreme gini=%g", g)
	}
	// Hand value: {1,2,3,4}: G = (2*(1+4+9+16))/(4*10) - 5/4 = 0.25.
	g, _ = Gini([]float64{1, 2, 3, 4})
	if !almostEq(g, 0.25, 1e-12) {
		t.Fatalf("gini=%g", g)
	}
	if _, err := Gini(nil); err != ErrEmpty {
		t.Fatal("empty accepted")
	}
	if _, err := Gini([]float64{1, -1}); err == nil {
		t.Fatal("negative accepted")
	}
	g, _ = Gini([]float64{0, 0})
	if g != 0 {
		t.Fatalf("all-zero gini=%g", g)
	}
}

func TestLorenzCurve(t *testing.T) {
	pop, val, err := Lorenz([]float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	wantPop := []float64{0, 0.5, 1}
	wantVal := []float64{0, 0.25, 1}
	for i := range wantPop {
		if !almostEq(pop[i], wantPop[i], 1e-12) || !almostEq(val[i], wantVal[i], 1e-12) {
			t.Fatalf("lorenz pop=%v val=%v", pop, val)
		}
	}
	// Lorenz curve lies below the equality line.
	for i := range pop {
		if val[i] > pop[i]+1e-12 {
			t.Fatalf("lorenz above diagonal at %d", i)
		}
	}
	if _, _, err := Lorenz(nil); err != ErrEmpty {
		t.Fatal("empty accepted")
	}
}

func TestTopShare(t *testing.T) {
	xs := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 91}
	s, err := TopShare(xs, 0.1)
	if err != nil || !almostEq(s, 0.91, 1e-12) {
		t.Fatalf("top share %g err=%v", s, err)
	}
	s, _ = TopShare(xs, 1)
	if !almostEq(s, 1, 1e-12) {
		t.Fatalf("full share %g", s)
	}
	if _, err := TopShare(xs, 0); err == nil {
		t.Fatal("q=0 accepted")
	}
	if _, err := TopShare(xs, 1.5); err == nil {
		t.Fatal("q>1 accepted")
	}
	s, _ = TopShare([]float64{0, 0}, 0.5)
	if s != 0 {
		t.Fatalf("zero-total share %g", s)
	}
}

// Property: Gini in [0,1); TopShare(q) >= q for non-negative data;
// weighted quantile equals unweighted type-lower quantile under equal
// weights.
func TestQuickInequality(t *testing.T) {
	r := rng.New(5)
	f := func(seed uint16) bool {
		n := int(seed%50) + 2
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.LogNormal(1, 1)
		}
		g, err := Gini(xs)
		if err != nil || g < -1e-12 || g >= 1 {
			return false
		}
		ts, err := TopShare(xs, 0.2)
		if err != nil || ts < 0.2-1e-9 || ts > 1+1e-12 {
			return false
		}
		pop, val, err := Lorenz(xs)
		if err != nil {
			return false
		}
		for i := range pop {
			if val[i] > pop[i]+1e-9 {
				return false
			}
			if i > 0 && (val[i] < val[i-1]-1e-12 || pop[i] < pop[i-1]-1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestGiniLogNormalPlausible(t *testing.T) {
	r := rng.New(9)
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = r.LogNormal(0, 1)
	}
	g, err := Gini(xs)
	if err != nil {
		t.Fatal(err)
	}
	// Lognormal(σ=1) has Gini = 2Φ(σ/√2) − 1 ≈ 0.5205.
	want := 2*NormalCDF(1/math.Sqrt2) - 1
	if math.Abs(g-want) > 0.03 {
		t.Fatalf("lognormal gini %g want %g", g, want)
	}
}
