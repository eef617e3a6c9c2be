package modlog

import (
	"fmt"
	"sort"

	"repro/internal/table"
)

// Co-load analysis: which modules are used together by the same user in
// the same year. Lift > 1 means the pair co-occurs more often than
// independent adoption would predict — e.g. python+cuda signals the
// GPU/ML stack.

// PairAffinity reports one module pair's co-usage.
type PairAffinity struct {
	A, B    string
	UsersA  int
	UsersB  int
	UsersAB int
	Jaccard float64 // |A∩B| / |A∪B|
	Lift    float64 // P(AB) / (P(A)P(B)), over the year's user base
}

// CoLoads computes co-usage for every module pair in one year's events.
// Pairs are returned sorted by descending lift, ties by Jaccard then
// name. Events from other years are an error (callers slice per year).
func CoLoads(events []Event, year int) ([]PairAffinity, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("modlog: no events")
	}
	users := map[string]map[string]bool{} // user -> set of module names
	for _, e := range events {
		if e.Year != year {
			return nil, fmt.Errorf("modlog: event for year %d in CoLoads(%d)", e.Year, year)
		}
		if users[e.User] == nil {
			users[e.User] = map[string]bool{}
		}
		users[e.User][e.Name()] = true
	}
	return pairAffinities(users), nil
}

// pairAffinities computes the pair statistics from user→module sets,
// the shared core of CoLoads and CoLoadsTable. The per-user iteration
// is map-ordered but every derived quantity is an integer count, so the
// result (after the final total-order sort) is deterministic.
func pairAffinities(users map[string]map[string]bool) []PairAffinity {
	totalUsers := len(users)
	moduleUsers := map[string]int{}
	pairUsers := map[[2]string]int{}
	for _, mods := range users {
		names := make([]string, 0, len(mods))
		for m := range mods {
			names = append(names, m)
		}
		sort.Strings(names)
		for i, a := range names {
			moduleUsers[a]++
			for _, b := range names[i+1:] {
				pairUsers[[2]string{a, b}]++
			}
		}
	}
	out := make([]PairAffinity, 0, len(pairUsers))
	n := float64(totalUsers)
	for pair, ab := range pairUsers {
		ua, ub := moduleUsers[pair[0]], moduleUsers[pair[1]]
		union := ua + ub - ab
		pa := float64(ua) / n
		pb := float64(ub) / n
		pab := float64(ab) / n
		aff := PairAffinity{
			A: pair[0], B: pair[1],
			UsersA: ua, UsersB: ub, UsersAB: ab,
			Jaccard: float64(ab) / float64(union),
		}
		if pa > 0 && pb > 0 {
			aff.Lift = pab / (pa * pb)
		}
		out = append(out, aff)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Lift != out[j].Lift {
			return out[i].Lift > out[j].Lift
		}
		if out[i].Jaccard != out[j].Jaccard {
			return out[i].Jaccard > out[j].Jaccard
		}
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// CoLoadsTable is the streaming equivalent of CoLoads: one scan in row
// order builds the user→module sets, which the same pair-affinity core
// scores.
func CoLoadsTable(t EventTable, year int) ([]PairAffinity, error) {
	if t.Len(table.Exact) == 0 {
		return nil, fmt.Errorf("modlog: no events")
	}
	users := map[string]map[string]bool{}
	var wrong error
	err := table.Each(t, func(e Event) bool {
		if e.Year != year {
			wrong = fmt.Errorf("modlog: event for year %d in CoLoadsTable(%d)", e.Year, year)
			return false
		}
		if users[e.User] == nil {
			users[e.User] = map[string]bool{}
		}
		users[e.User][e.Name()] = true
		return true
	})
	if err == nil {
		err = wrong
	}
	if err != nil {
		return nil, err
	}
	return pairAffinities(users), nil
}

// TopPairs returns the k highest-lift pairs with at least minUsers
// co-users (filtering out noise pairs).
func TopPairs(pairs []PairAffinity, k, minUsers int) []PairAffinity {
	out := make([]PairAffinity, 0, k)
	for _, p := range pairs {
		if p.UsersAB < minUsers {
			continue
		}
		out = append(out, p)
		if len(out) == k {
			break
		}
	}
	return out
}
