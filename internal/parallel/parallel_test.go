package parallel

import (
	"errors"
	"testing"
	"testing/quick"
)

func TestMapOrderPreserved(t *testing.T) {
	xs := make([]int, 1000)
	for i := range xs {
		xs[i] = i
	}
	out, err := Map(8, xs, func(_ int, x int) (int, error) { return x * 2, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*2 {
			t.Fatalf("out[%d]=%d", i, v)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(4, nil, func(_ int, x int) (int, error) { return x, nil })
	if err != nil || len(out) != 0 {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestMapError(t *testing.T) {
	boom := errors.New("boom")
	xs := make([]int, 100)
	_, err := Map(4, xs, func(i int, _ int) (int, error) {
		if i == 42 {
			return 0, boom
		}
		return 0, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v", err)
	}
}

func TestMapPanicBecomesError(t *testing.T) {
	xs := make([]int, 10)
	_, err := Map(2, xs, func(i int, _ int) (int, error) {
		if i == 3 {
			panic("kaboom")
		}
		return 0, nil
	})
	if err == nil {
		t.Fatal("panic swallowed")
	}
}

func TestMapSerialEqualsParallel(t *testing.T) {
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = float64(i) * 1.5
	}
	fn := func(_ int, x float64) (float64, error) { return x*x + 1, nil }
	serial, err1 := Map(1, xs, fn)
	par, err2 := Map(8, xs, fn)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	for i := range serial {
		if serial[i] != par[i] {
			t.Fatalf("index %d: serial %g != parallel %g", i, serial[i], par[i])
		}
	}
}

func TestChunksCoverExactly(t *testing.T) {
	for n := 1; n <= 40; n++ {
		for parts := 1; parts <= 10; parts++ {
			cs := Chunks(n, parts)
			covered := 0
			prevHi := 0
			for i, c := range cs {
				if c.Index != i {
					t.Fatalf("chunk index %d != %d", c.Index, i)
				}
				if c.Lo != prevHi {
					t.Fatalf("gap before chunk %d", i)
				}
				if c.Hi <= c.Lo {
					t.Fatalf("empty chunk %d", i)
				}
				covered += c.Hi - c.Lo
				prevHi = c.Hi
			}
			if covered != n {
				t.Fatalf("n=%d parts=%d covered %d", n, parts, covered)
			}
		}
	}
	if Chunks(0, 4) != nil {
		t.Fatal("zero items should give no chunks")
	}
	if got := Chunks(5, 0); len(got) != 1 {
		t.Fatalf("parts=0 should degrade to 1 chunk, got %d", len(got))
	}
}

func TestFoldOrdered(t *testing.T) {
	// Non-commutative merge: string concat must be in chunk order.
	got := Fold([]string{"a", "b", "c"}, "", func(a string, r string) string { return a + r })
	if got != "abc" {
		t.Fatalf("fold=%q", got)
	}
}

// Property: chunking covers [0,n) exactly for arbitrary inputs.
func TestQuickChunks(t *testing.T) {
	f := func(nRaw, pRaw uint16) bool {
		n := int(nRaw % 5000)
		parts := int(pRaw % 64)
		cs := Chunks(n, parts)
		covered := 0
		prev := 0
		for _, c := range cs {
			if c.Lo != prev || c.Hi <= c.Lo {
				return false
			}
			covered += c.Hi - c.Lo
			prev = c.Hi
		}
		return covered == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMapParallel(b *testing.B) {
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = Map(0, xs, func(_ int, x float64) (float64, error) {
			s := 0.0
			for k := 0; k < 50; k++ {
				s += x * float64(k)
			}
			return s, nil
		})
	}
}
