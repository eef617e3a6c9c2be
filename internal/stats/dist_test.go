package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNormalCDFKnown(t *testing.T) {
	cases := []struct{ z, want float64 }{
		{0, 0.5},
		{1.959963984540054, 0.975},
		{-1.959963984540054, 0.025},
		{1, 0.8413447460685429},
		{-2.5758293035489004, 0.005},
	}
	for _, c := range cases {
		if got := NormalCDF(c.z); !almostEq(got, c.want, 1e-9) {
			t.Fatalf("NormalCDF(%g)=%.10f want %.10f", c.z, got, c.want)
		}
	}
}

func TestNormalQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.001, 0.01, 0.025, 0.1, 0.5, 0.9, 0.975, 0.99, 0.999} {
		z := NormalQuantile(p)
		if got := NormalCDF(z); !almostEq(got, p, 1e-8) {
			t.Fatalf("roundtrip p=%g gave %g", p, got)
		}
	}
}

func TestNormalQuantilePanics(t *testing.T) {
	for _, p := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NormalQuantile(%g) did not panic", p)
				}
			}()
			NormalQuantile(p)
		}()
	}
}

func TestChiSquareSFKnown(t *testing.T) {
	// Reference values from R: pchisq(x, df, lower.tail=FALSE).
	cases := []struct {
		x    float64
		df   int
		want float64
	}{
		{3.841458820694124, 1, 0.05},
		{5.991464547107979, 2, 0.05},
		{16.918977604620448, 9, 0.05},
		{2.705543454095404, 1, 0.10},
		{0, 3, 1},
	}
	for _, c := range cases {
		if got := ChiSquareSF(c.x, c.df); !almostEq(got, c.want, 1e-8) {
			t.Fatalf("ChiSquareSF(%g,%d)=%.10f want %g", c.x, c.df, got, c.want)
		}
	}
}

func TestLnFactorial(t *testing.T) {
	if lnFactorial(0) != 0 {
		t.Fatal("ln(0!) != 0")
	}
	if !almostEq(lnFactorial(5), math.Log(120), 1e-12) {
		t.Fatal("ln(5!) wrong")
	}
}

// Property: ChiSquareSF is a valid survival function — in [0,1] and
// non-increasing in x.
func TestQuickChiSquareSFMonotone(t *testing.T) {
	f := func(a, b float64, dfRaw uint8) bool {
		df := int(dfRaw%20) + 1
		x1 := math.Abs(a)
		x2 := math.Abs(b)
		if math.IsNaN(x1) || math.IsNaN(x2) || x1 > 1e6 || x2 > 1e6 {
			return true
		}
		if x1 > x2 {
			x1, x2 = x2, x1
		}
		s1 := ChiSquareSF(x1, df)
		s2 := ChiSquareSF(x2, df)
		return s1 >= -1e-12 && s1 <= 1+1e-12 && s2 <= s1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: NormalCDF is monotone and bounded.
func TestQuickNormalCDF(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		ca, cb := NormalCDF(a), NormalCDF(b)
		return ca >= 0 && cb <= 1 && ca <= cb+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}
