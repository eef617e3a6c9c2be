package table

// This file holds the consumer-side helpers. Each, FoldSeq and Rows
// stream one scanner in row order, the package's one rule: a fold
// re-associated over parts or workers would make float bits depend on
// an execution knob.

// Each streams every row of t in row order through fn; fn returning
// false stops early.
func Each[T any](t Table[T], fn func(T) bool) error {
	sc := t.Scanner()
	for sc.Scan() {
		if !fn(sc.Row()) {
			break
		}
	}
	return sc.Err()
}

// FoldSeq reduces t in strict row order — the required shape for
// float sums feeding artifacts.
func FoldSeq[T, A any](t Table[T], acc A, fold func(A, T) A) (A, error) {
	sc := t.Scanner()
	for sc.Scan() {
		acc = fold(acc, sc.Row())
	}
	if err := sc.Err(); err != nil {
		var zero A
		return zero, err
	}
	return acc, nil
}

// Rows materializes every row of t into a slice — the bridge back to
// []T consumers (derived views, legacy call sites, tests).
func Rows[T any](t Table[T]) ([]T, error) {
	out := make([]T, 0, t.Len(Exact))
	err := Each(t, func(row T) bool {
		out = append(out, row)
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
