package stats

import (
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

func TestContingencyBasics(t *testing.T) {
	tab, err := NewContingency(2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.Add(0, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := tab.Add(1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if tab.At(0, 0) != 5 || tab.At(1, 2) != 3 {
		t.Fatal("cells wrong")
	}
	if tab.RowSum(0) != 5 || tab.ColSum(2) != 3 || tab.Total() != 8 {
		t.Fatal("margins wrong")
	}
	if err := tab.Add(5, 0, 1); err == nil {
		t.Fatal("out-of-range add accepted")
	}
	if err := tab.Add(0, 0, -1); err == nil {
		t.Fatal("negative add accepted")
	}
	if _, err := NewContingency(1, 2); err == nil {
		t.Fatal("1x2 table accepted")
	}
}

func TestFromCounts(t *testing.T) {
	if _, err := FromCounts(2, 2, []float64{1, 2, 3}); err == nil {
		t.Fatal("wrong count length accepted")
	}
	if _, err := FromCounts(2, 2, []float64{1, 2, 3, -4}); err == nil {
		t.Fatal("negative count accepted")
	}
	tab, err := FromCounts(2, 2, []float64{10, 20, 30, 40})
	if err != nil || tab.At(1, 0) != 30 {
		t.Fatalf("FromCounts: %v", err)
	}
	// Rows and cols can come from a request: a shape the counts cannot
	// fill is refused before rows×cols cells are allocated, and a product
	// that overflows is refused rather than wrapped to the count length.
	counts := []float64{1, 2, 3, 4}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = FromCounts(4096, 4096, counts)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("4096x4096 table accepted from 4 counts")
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= 1<<20 {
		t.Fatalf("refusing a 4096x4096 table allocated %d bytes", grown)
	}
	if _, err := FromCounts(4, 4611686018427387905, counts); err == nil {
		t.Fatal("a rows×cols product that wraps to 4 was accepted")
	}
}

func TestChiSquareKnown(t *testing.T) {
	// Hand-computed: rows [10,20],[30,40]; expected cells 12,18,28,42;
	// X2 = 4/12+4/18+4/28+4/42 = 0.7936507..., df = 1, p ~ 0.3730.
	tab, _ := FromCounts(2, 2, []float64{10, 20, 30, 40})
	res, err := tab.ChiSquare()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Stat, 0.7936507936507936, 1e-10) {
		t.Fatalf("chi2=%g", res.Stat)
	}
	if res.DF != 1 {
		t.Fatalf("df=%d", res.DF)
	}
	if !almostEq(res.P, 0.3730, 2e-4) {
		t.Fatalf("p=%g", res.P)
	}
	if res.CramerV < 0 || res.CramerV > 1 {
		t.Fatalf("V=%g", res.CramerV)
	}
}

func TestChiSquareIndependentIsZero(t *testing.T) {
	// Perfectly proportional table: statistic must be ~0, p ~1.
	tab, _ := FromCounts(2, 2, []float64{10, 20, 20, 40})
	res, err := tab.ChiSquare()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.Stat, 0, 1e-9) || res.P < 0.999 {
		t.Fatalf("stat=%g p=%g", res.Stat, res.P)
	}
}

func TestChiSquareDegenerateMargin(t *testing.T) {
	tab, _ := FromCounts(2, 2, []float64{0, 0, 5, 5})
	if _, err := tab.ChiSquare(); err == nil {
		t.Fatal("zero row margin accepted")
	}
	empty, _ := NewContingency(2, 2)
	if _, err := empty.ChiSquare(); err == nil {
		t.Fatal("empty table accepted")
	}
}

func TestGTestCloseToChiSquare(t *testing.T) {
	tab, _ := FromCounts(2, 2, []float64{100, 150, 120, 180})
	chi, err1 := tab.ChiSquare()
	g, err2 := tab.GTest()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	// For large balanced tables G and X2 agree closely.
	if math.Abs(chi.Stat-g.Stat) > 0.5 {
		t.Fatalf("chi2=%g g=%g diverge", chi.Stat, g.Stat)
	}
}

func TestFisherExactKnown(t *testing.T) {
	// R: fisher.test(matrix(c(3,1,1,3),2,2)) p = 0.4857143 (tea-tasting).
	p, err := Table2x2{A: 3, B: 1, C: 1, D: 3}.FisherExact()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(p, 0.4857142857, 1e-8) {
		t.Fatalf("fisher p=%.10f", p)
	}
	// R: fisher.test(matrix(c(1,9,11,3),2,2)) p = 0.002759456.
	p, err = Table2x2{A: 1, B: 9, C: 11, D: 3}.FisherExact()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(p, 0.002759456, 1e-7) {
		t.Fatalf("fisher p=%.10f", p)
	}
}

func TestFisherExactRejectsFractional(t *testing.T) {
	if _, err := (Table2x2{A: 1.5, B: 2, C: 3, D: 4}).FisherExact(); err == nil {
		t.Fatal("fractional counts accepted")
	}
	if _, err := (Table2x2{}).FisherExact(); err == nil {
		t.Fatal("empty table accepted")
	}
}

func TestOddsRatio(t *testing.T) {
	or, lo, hi, err := Table2x2{A: 20, B: 80, C: 10, D: 90}.OddsRatio()
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(or, 2.25, 1e-9) {
		t.Fatalf("or=%g", or)
	}
	if lo >= or || hi <= or {
		t.Fatalf("interval [%g,%g] does not bracket %g", lo, hi, or)
	}
	// Zero cell gets the Haldane correction, not a crash.
	or, _, _, err = Table2x2{A: 0, B: 10, C: 5, D: 5}.OddsRatio()
	if err != nil || or <= 0 {
		t.Fatalf("corrected or=%g err=%v", or, err)
	}
	if _, _, _, err := (Table2x2{A: 0, B: 0, C: 1, D: 1}).OddsRatio(); err == nil {
		t.Fatal("empty row accepted")
	}
}

func TestPhi(t *testing.T) {
	// Perfect association.
	phi, err := Table2x2{A: 10, B: 0, C: 0, D: 10}.Phi()
	if err != nil || !almostEq(phi, 1, 1e-12) {
		t.Fatalf("phi=%g err=%v", phi, err)
	}
	phi, _ = Table2x2{A: 0, B: 10, C: 10, D: 0}.Phi()
	if !almostEq(phi, -1, 1e-12) {
		t.Fatalf("phi=%g", phi)
	}
	if _, err := (Table2x2{A: 0, B: 0, C: 5, D: 5}).Phi(); err == nil {
		t.Fatal("zero margin accepted")
	}
}

func TestTwoProportionZ(t *testing.T) {
	z, p, err := TwoProportionZ(50, 100, 50, 100)
	if err != nil || z != 0 || !almostEq(p, 1, 1e-12) {
		t.Fatalf("z=%g p=%g err=%v", z, p, err)
	}
	z, p, err = TwoProportionZ(80, 100, 40, 100)
	if err != nil {
		t.Fatal(err)
	}
	if z <= 0 || p >= 0.001 {
		t.Fatalf("z=%g p=%g for a 40-point gap", z, p)
	}
	if _, _, err := TwoProportionZ(5, 0, 1, 10); err == nil {
		t.Fatal("zero trials accepted")
	}
	if _, _, err := TwoProportionZ(15, 10, 1, 10); err == nil {
		t.Fatal("successes > trials accepted")
	}
	// Degenerate: everyone succeeded in both groups.
	_, p, err = TwoProportionZ(10, 10, 20, 20)
	if err != nil || p != 1 {
		t.Fatalf("degenerate case p=%g err=%v", p, err)
	}
}

// Property: chi-square statistic is non-negative and p in [0,1] on any
// table with positive margins.
func TestQuickChiSquareValid(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		tab, _ := FromCounts(2, 2, []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1, float64(d) + 1})
		res, err := tab.ChiSquare()
		if err != nil {
			return false
		}
		return res.Stat >= 0 && res.P >= 0 && res.P <= 1 && res.CramerV >= 0 && res.CramerV <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Fisher exact p is within [0,1] and symmetric under
// simultaneous row and column swap.
func TestQuickFisherSymmetry(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		t1 := Table2x2{A: float64(a), B: float64(b), C: float64(c), D: float64(d)}
		if t1.A+t1.B+t1.C+t1.D == 0 {
			return true
		}
		t2 := Table2x2{A: t1.D, B: t1.C, C: t1.B, D: t1.A}
		p1, err1 := t1.FisherExact()
		p2, err2 := t2.FisherExact()
		if err1 != nil || err2 != nil {
			return false
		}
		return p1 >= 0 && p1 <= 1 && almostEq(p1, p2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
