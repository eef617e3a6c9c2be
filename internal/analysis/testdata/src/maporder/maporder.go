// Fixture for the maporder analyzer: order-sensitive work inside range
// over a map. `// want` lines are true positives; everything else must
// stay clean.
package maporder

import (
	"cmp"
	"slices"
	"sort"
)

// meanShare folds floats in map iteration order — the jainFairness bug.
func meanShare(shares map[string]float64) float64 {
	total := 0.0
	for _, v := range shares {
		total += v // want `float accumulation into "total" inside range over map`
	}
	return total / float64(len(shares))
}

// plusSpelling catches the x = x + v spelling of the same fold.
func plusSpelling(shares map[string]float64) float64 {
	total := 0.0
	for _, v := range shares {
		total = total + v // want `float accumulation into "total" inside range over map`
	}
	return total
}

// collectUnsorted lets map iteration order escape through a slice.
func collectUnsorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // want `append to "keys" inside range over map`
	}
	return keys
}

// collectSorted is the blessed idiom: the sort right after the loop
// erases the iteration order, so it must not be flagged.
func collectSorted(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// collectSortSlice sorts the keys by their values alone: keys with
// equal values keep map iteration order.
func collectSortSlice(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return m[keys[i]] > m[keys[j]] }) // want `sort of map keys in "keys" does not end its comparator on the keys`
	return keys
}

// collectSortSliceTieBroken is the comparator variant of the blessed
// idiom: ties on the value fall through to the keys themselves.
func collectSortSliceTieBroken(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if m[keys[i]] != m[keys[j]] {
			return m[keys[i]] > m[keys[j]]
		}
		return keys[i] < keys[j]
	})
	return keys
}

// collectSortFunc is the slices.SortFunc spelling of collectSortSlice.
func collectSortFunc(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b string) int { return cmp.Compare(m[b], m[a]) }) // want `sort of map keys in "keys" does not end its comparator on the keys`
	return keys
}

// collectSortFuncTieBroken ends its cmp.Or on the keys.
func collectSortFuncTieBroken(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b string) int {
		return cmp.Or(cmp.Compare(m[b], m[a]), cmp.Compare(a, b))
	})
	return keys
}

// intCount is exact integer arithmetic: commutative, so order-free.
func intCount(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// keyedWrites write through the key, which is deterministic per entry.
func keyedWrites(m map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for k, v := range m {
		out[k] = v * 2
	}
	return out
}

// localAccumulator is reset every iteration; nothing escapes.
func localAccumulator(m map[string][]float64) int {
	n := 0
	for _, vs := range m {
		s := 0.0
		for _, v := range vs {
			s += v
		}
		if s > 1 {
			n++
		}
	}
	return n
}

// byName orders keys through a sort.Interface.
type byName []string

func (s byName) Len() int           { return len(s) }
func (s byName) Less(i, j int) bool { return s[i] < s[j] }
func (s byName) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// collectSortInterface: the analyzer does not follow a Less method, so
// sort.Sort of collected keys is reported even when Less ends on them.
func collectSortInterface(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Sort(byName(keys)) // want `sort of map keys in "keys" does not end its comparator on the keys`
	return keys
}
