package table

import (
	"repro/internal/parallel"
)

// This file holds the consumer-side helpers: streaming iteration and
// shard-parallel aggregation with a fixed merge order.
//
// Determinism rules (enforced by convention + the shard-count
// equivalence test):
//
//   - Each and FoldSeq stream one scanner in row order — the only legal
//     shape for float accumulation, where re-association changes bits.
//   - ShardFold fans out over shard scanners and merges partials in
//     ascending shard index order. Legal only for order-free
//     aggregations: integer counts, set unions, histograms,
//     collect-then-sort. The merge order is fixed so even "mostly
//     order-free" merges (e.g. appending to a slice that is sorted
//     later with a non-total comparator) stay reproducible.

// Each streams every row of t in row order through fn; fn returning
// false stops early.
func Each[T any](t Table[T], fn func(T) bool) error {
	sc := t.Scanner(0, 1, 1)
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
	sc := t.Scanner(0, 1, 1)
	for sc.Scan() {
		acc = fold(acc, sc.Row())
	}
	if err := sc.Err(); err != nil {
		var zero A
		return zero, err
	}
	return acc, nil
}

// ShardFold reduces t over `shards` concurrent shard scanners, then
// merges the per-shard partials in ascending shard order. ORDER-FREE
// AGGREGATIONS ONLY — see the package comment; float folds must use
// FoldSeq instead.
func ShardFold[T, A any](t Table[T], shards int, newAcc func() A, fold func(A, T) A, merge func(A, A) A) (A, error) {
	partials, err := foldShards(t, shards, newAcc, fold)
	if err != nil {
		var zero A
		return zero, err
	}
	out := partials[0]
	for _, p := range partials[1:] { // fixed ascending shard order
		out = merge(out, p)
	}
	return out, nil
}

// ShardCollect maps every row through fn over `shards` concurrent
// scanners and concatenates the per-shard slices in ascending shard
// order — so the result is in row order, same as a sequential scan.
func ShardCollect[T, R any](t Table[T], shards int, fn func(T) R) ([]R, error) {
	parts, err := ShardFoldParts(t, shards, func(acc []R, row T) []R {
		return append(acc, fn(row))
	})
	if err != nil {
		return nil, err
	}
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	out := make([]R, 0, n)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// ShardFoldParts runs a per-shard fold from the zero accumulator and
// returns the partials in shard order, for callers that need a custom
// merge.
func ShardFoldParts[T, A any](t Table[T], shards int, fold func(A, T) A) ([]A, error) {
	return foldShards(t, shards, func() (zero A) { return zero }, fold)
}

// foldShards folds each of `shards` shard scanners concurrently, each
// from newAcc(), and returns the partials in shard order. It clamps
// shards to [1, rows] so no shard is empty unless the table is.
func foldShards[T, A any](t Table[T], shards int, newAcc func() A, fold func(A, T) A) ([]A, error) {
	if shards <= 0 {
		shards = 1
	}
	if n := t.Len(Exact); shards > n && n > 0 {
		shards = n
	}
	idx := make([]int, shards)
	for i := range idx {
		idx[i] = i
	}
	return parallel.Map(shards, idx, func(_ int, s int) (A, error) {
		acc := newAcc()
		sc := t.Scanner(s, s+1, shards)
		for sc.Scan() {
			acc = fold(acc, sc.Row())
		}
		if err := sc.Err(); err != nil {
			var zero A
			return zero, err
		}
		return acc, nil
	})
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
