package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestMannWhitneyShifted(t *testing.T) {
	r := rng.New(11)
	xs := make([]float64, 80)
	ys := make([]float64, 80)
	for i := range xs {
		xs[i] = r.NormMeanStd(0, 1)
		ys[i] = r.NormMeanStd(1.2, 1)
	}
	res, err := MannWhitneyU(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if res.P > 0.001 {
		t.Fatalf("clear shift but p=%g", res.P)
	}
}

func TestMannWhitneySameDistribution(t *testing.T) {
	r := rng.New(12)
	xs := make([]float64, 100)
	ys := make([]float64, 100)
	for i := range xs {
		xs[i] = r.NormMeanStd(5, 2)
		ys[i] = r.NormMeanStd(5, 2)
	}
	res, err := MannWhitneyU(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.01 {
		t.Fatalf("identical distributions but p=%g", res.P)
	}
}

func TestMannWhitneyAllTies(t *testing.T) {
	res, err := MannWhitneyU([]float64{3, 3, 3}, []float64{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.P != 1 || res.Z != 0 {
		t.Fatalf("all-ties should be p=1, got %+v", res)
	}
}

func TestMannWhitneyEmpty(t *testing.T) {
	if _, err := MannWhitneyU(nil, []float64{1}); err != ErrEmpty {
		t.Fatal("empty sample accepted")
	}
}

func TestMannWhitneyUStatistic(t *testing.T) {
	// Hand-computed: xs={1,2}, ys={3,4}: all ys > xs, U1 = 0.
	res, err := MannWhitneyU([]float64{1, 2}, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.U != 0 {
		t.Fatalf("U=%g want 0", res.U)
	}
	res, _ = MannWhitneyU([]float64{3, 4}, []float64{1, 2})
	if res.U != 4 {
		t.Fatalf("U=%g want 4", res.U)
	}
}

func TestBHAdjustKnown(t *testing.T) {
	// Verified against R: p.adjust(c(0.01,0.04,0.03,0.005), method="BH")
	// = 0.02 0.04 0.04 0.02
	ps := []float64{0.01, 0.04, 0.03, 0.005}
	adj, err := BHAdjust(ps)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.02, 0.04, 0.04, 0.02}
	for i := range want {
		if !almostEq(adj[i], want[i], 1e-12) {
			t.Fatalf("BH adj %v want %v", adj, want)
		}
	}
}

func TestBHAdjustProperties(t *testing.T) {
	if _, err := BHAdjust(nil); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := BHAdjust([]float64{0.5, 1.2}); err == nil {
		t.Fatal("p>1 accepted")
	}
	if _, err := BHAdjust([]float64{math.NaN()}); err == nil {
		t.Fatal("NaN accepted")
	}
}

func TestCohenH(t *testing.T) {
	h, err := CohenH(0.5, 0.5)
	if err != nil || h != 0 {
		t.Fatalf("h=%g err=%v", h, err)
	}
	h, _ = CohenH(0.8, 0.2)
	if h <= 0 {
		t.Fatalf("h=%g should be positive", h)
	}
	h2, _ := CohenH(0.2, 0.8)
	if !almostEq(h, -h2, 1e-12) {
		t.Fatal("Cohen's h not antisymmetric")
	}
	if _, err := CohenH(1.2, 0.5); err == nil {
		t.Fatal("p>1 accepted")
	}
}

// Property: BH-adjusted p-values are >= raw, <= 1, and preserve order of
// the sorted sequence (monotone step-up).
func TestQuickBHMonotone(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		ps := make([]float64, len(raw))
		for i, v := range raw {
			ps[i] = float64(v) / 65535
		}
		adj, err := BHAdjust(ps)
		if err != nil {
			return false
		}
		for i := range ps {
			if adj[i] < ps[i]-1e-12 || adj[i] > 1+1e-12 {
				return false
			}
		}
		// Sorted raw ps must map to sorted adjusted ps.
		type pair struct{ p, q float64 }
		pairs := make([]pair, len(ps))
		for i := range ps {
			pairs[i] = pair{ps[i], adj[i]}
		}
		sort.Slice(pairs, func(a, b int) bool { return pairs[a].p < pairs[b].p })
		for i := 1; i < len(pairs); i++ {
			if pairs[i].q < pairs[i-1].q-1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
