// Package modlog models software-module-load telemetry (Lmod-style
// "user loaded module X at time T" events): a text log format with a
// strict parser, a synthetic generator driven by the same per-year
// language trends as the trace workload, and aggregation into per-year
// module/language shares. This is the measured-behavior counterpart to
// the survey's self-reported language question, feeding the
// survey-vs-telemetry concordance table (R-T7) and the adoption trend
// figure (R-F1).
package modlog

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/rng"
)

// Event is one module load.
type Event struct {
	Time   int64 // seconds since epoch of the log
	Year   int   // calendar year (generator stamps it; real logs derive it)
	User   string
	Module string // e.g. "python/3.11", "openmpi/4.1"
}

// Validate checks the event.
func (e Event) Validate() error {
	switch {
	case e.Time < 0:
		return fmt.Errorf("modlog: negative time %d", e.Time)
	case e.Year <= 0:
		return fmt.Errorf("modlog: year %d", e.Year)
	}
	if err := checkName("user", e.User); err != nil {
		return err
	}
	return checkName("module", e.Module)
}

// checkName refuses an empty user or module string, or one holding
// whitespace, which a log line's space-separated fields cannot carry.
func checkName(what, s string) error {
	switch {
	case s == "":
		return fmt.Errorf("modlog: empty %s", what)
	case strings.ContainsAny(s, " \t"):
		return fmt.Errorf("modlog: %s %q contains whitespace", what, s)
	}
	return nil
}

// Name returns the module name without its version ("python/3.11" →
// "python").
func (e Event) Name() string {
	if i := strings.IndexByte(e.Module, '/'); i >= 0 {
		return e.Module[:i]
	}
	return e.Module
}

// Write streams events as "time year user module" lines.
func Write(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for _, e := range events {
		if err := e.Validate(); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(bw, "%d %d %s %s\n", e.Time, e.Year, e.User, e.Module); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Parse reads the text format, reporting the first malformed line.
func Parse(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 4 {
			return nil, fmt.Errorf("modlog: line %d: %d fields, want 4", line, len(fields))
		}
		t, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("modlog: line %d: time: %w", line, err)
		}
		y, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("modlog: line %d: year: %w", line, err)
		}
		e := Event{Time: t, Year: y, User: fields[2], Module: fields[3]}
		if err := e.Validate(); err != nil {
			return nil, fmt.Errorf("modlog: line %d: %w", line, err)
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("modlog: read: %w", err)
	}
	return out, nil
}

// moduleVersions maps a module name to plausible versions per era; the
// generator picks by year so logs look realistic.
var moduleVersions = map[string][]string{
	"python":   {"2.7", "3.6", "3.9", "3.11"},
	"r":        {"3.2", "4.0", "4.3"},
	"matlab":   {"2011a", "2017b", "2023a"},
	"gcc":      {"4.7", "7.3", "11.2"},
	"intel":    {"12.0", "18.0", "2022.1"},
	"openmpi":  {"1.6", "3.1", "4.1"},
	"cuda":     {"4.0", "9.0", "12.1"},
	"julia":    {"0.6", "1.6", "1.9"},
	"anaconda": {"2.2", "2020.07", "2023.09"},
	"fortran":  {"legacy"},
	"stata":    {"12", "16", "18"},
}

// GeneratorModel parameterizes one year of module-load telemetry.
type GeneratorModel struct {
	Year         int
	Users        int
	LoadsPerUser float64 // Poisson mean per user over the window
	// ModuleShare maps module name -> relative weight.
	ModuleShare map[string]float64
	WindowDays  int
}

// CampusModulesModel returns the per-year module mix, aligned with the
// trace generator's language trend: rising python/cuda/anaconda, falling
// fortran-era toolchains.
func CampusModulesModel(year int) *GeneratorModel {
	t := float64(year-2011) / 13
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	lerp := func(a, b float64) float64 { return a + (b-a)*t }
	return &GeneratorModel{
		Year:         year,
		Users:        300,
		LoadsPerUser: 40,
		WindowDays:   30,
		ModuleShare: map[string]float64{
			"python":   lerp(0.10, 0.34),
			"anaconda": lerp(0.00, 0.12),
			"r":        lerp(0.06, 0.08),
			"matlab":   lerp(0.16, 0.06),
			"gcc":      lerp(0.18, 0.12),
			"intel":    lerp(0.16, 0.05),
			"openmpi":  lerp(0.14, 0.08),
			"cuda":     lerp(0.02, 0.11),
			"julia":    lerp(0.00, 0.02),
			"fortran":  lerp(0.16, 0.01),
			"stata":    lerp(0.02, 0.01),
		},
	}
}

// Validate checks the model.
func (m *GeneratorModel) Validate() error {
	if m.Year <= 0 || m.Users <= 0 || m.LoadsPerUser <= 0 || m.WindowDays <= 0 {
		return fmt.Errorf("modlog: invalid generator model %+v", m)
	}
	if len(m.ModuleShare) == 0 {
		return errors.New("modlog: empty module share")
	}
	// Fold weights in sorted-name order so the zero-sum check below is
	// not at the mercy of map iteration order (float addition is not
	// associative; see the maporder lint rule).
	names := make([]string, 0, len(m.ModuleShare))
	for name := range m.ModuleShare {
		names = append(names, name)
	}
	sort.Strings(names)
	sum := 0.0
	for _, name := range names {
		w := m.ModuleShare[name]
		if w < 0 {
			return fmt.Errorf("modlog: module %q has negative weight", name)
		}
		if _, ok := moduleVersions[name]; !ok {
			return fmt.Errorf("modlog: unknown module %q", name)
		}
		sum += w
	}
	if sum <= 0 {
		return errors.New("modlog: module weights sum to zero")
	}
	return nil
}

// Generate produces one year's events sorted by time. Deterministic in r.
func (m *GeneratorModel) Generate(r *rng.RNG) ([]Event, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	cat, err := rng.NewCategorical(m.ModuleShare)
	if err != nil {
		return nil, err
	}
	// A repertoire can hold only modules the categorical can draw: the
	// zero-weight ones never come up, so counting them would let a large
	// repertoire draw forever.
	drawable := 0
	for _, w := range m.ModuleShare {
		if w > 0 {
			drawable++
		}
	}
	// Each module loads one era-appropriate version all year (its index
	// scales with the year knob): format and check every "name/version"
	// once, and each user name where it is formatted. An event's time
	// and year hold by construction, so no event is checked again.
	modules := make(map[string]string, len(m.ModuleShare))
	for name := range m.ModuleShare {
		versions := moduleVersions[name]
		vi := min(max(int(float64(len(versions)-1)*float64(m.Year-2011)/13.0), 0), len(versions)-1)
		module := name + "/" + versions[vi]
		if err := checkName("module", module); err != nil {
			return nil, err
		}
		modules[name] = module
	}
	window := int64(m.WindowDays) * 86400
	// The event count is Poisson with mean Users × LoadsPerUser: room for
	// four standard deviations more, and the slice almost never regrows.
	mean := float64(m.Users) * m.LoadsPerUser
	events := make([]Event, 0, int(mean+4*math.Sqrt(mean)))
	for u := 0; u < m.Users; u++ {
		user := fmt.Sprintf("u%04d", u)
		if err := checkName("user", user); err != nil {
			return nil, err
		}
		// Each user works from a small personal repertoire of modules
		// drawn from the campus mix; without this, "share of users who
		// loaded X at least once" saturates to 1 for every module.
		repSize := 1 + r.Poisson(1.3)
		repertoire := make([]string, 0, repSize) // module strings
		for len(repertoire) < repSize {
			module := modules[cat.Draw(r)]
			dup := false
			for _, x := range repertoire {
				if x == module {
					dup = true
					break
				}
			}
			if !dup {
				repertoire = append(repertoire, module)
			}
			if len(repertoire) >= drawable {
				break
			}
		}
		n := r.Poisson(m.LoadsPerUser)
		for k := 0; k < n; k++ {
			module := repertoire[r.Intn(len(repertoire))]
			events = append(events, Event{
				Time:   int64(r.Uint64n(uint64(window))),
				Year:   m.Year,
				User:   user,
				Module: module,
			})
		}
	}
	return sortEvents(events), nil
}

// sortEvents returns events ordered by (Time, User, Module). It sorts
// small pointer-free keys and then places each event once: swapping
// whole events, which hold two strings, pays a write barrier per move
// whenever the collector runs. Events equal in all three fields are
// equal in every field, so their order cannot show.
func sortEvents(events []Event) []Event {
	type eventKey struct {
		time int64
		i    int
	}
	keys := make([]eventKey, len(events))
	for i := range events {
		keys[i] = eventKey{time: events[i].Time, i: i}
	}
	slices.SortFunc(keys, func(a, b eventKey) int {
		if c := cmp.Compare(a.time, b.time); c != 0 {
			return c
		}
		ea, eb := &events[a.i], &events[b.i]
		return cmp.Or(strings.Compare(ea.User, eb.User), strings.Compare(ea.Module, eb.Module))
	})
	sorted := make([]Event, len(events))
	for i, k := range keys {
		sorted[i] = events[k.i]
	}
	return sorted
}

// YearShares aggregates events into per-year module-name user shares:
// the fraction of distinct users who loaded each module at least once
// that year. Shares are per-user, not per-load, to match how the survey
// asks "do you use X".
type YearShares struct {
	Year   int
	Users  int
	Shares map[string]float64
}

// AggregateByYear computes YearShares for each year present, sorted
// ascending.
func AggregateByYear(events []Event) []YearShares {
	type key struct {
		year int
		user string
	}
	// Size hints: a synthetic log averages a handful of loads per
	// (year, user) pair, and the event slice bounds the pair count, so
	// hinting from len(events) keeps the hot maps from regrowing while
	// staying O(1) extra memory for small logs.
	pairHint := len(events)/8 + 8
	usersPerYear := make(map[int]map[string]bool, 8)
	loads := make(map[key]map[string]bool, pairHint)
	for _, e := range events {
		if usersPerYear[e.Year] == nil {
			usersPerYear[e.Year] = make(map[string]bool, pairHint)
		}
		usersPerYear[e.Year][e.User] = true
		k := key{e.Year, e.User}
		if loads[k] == nil {
			loads[k] = make(map[string]bool, 8)
		}
		loads[k][e.Name()] = true
	}
	years := make([]int, 0, len(usersPerYear))
	for y := range usersPerYear {
		years = append(years, y)
	}
	sort.Ints(years)
	out := make([]YearShares, 0, len(years))
	for _, y := range years {
		users := usersPerYear[y]
		counts := make(map[string]int, 64)
		for user := range users {
			for name := range loads[key{y, user}] {
				counts[name]++
			}
		}
		shares := make(map[string]float64, len(counts))
		for name, c := range counts {
			shares[name] = float64(c) / float64(len(users))
		}
		out = append(out, YearShares{Year: y, Users: len(users), Shares: shares})
	}
	return out
}

// Series extracts one module's share across years from aggregated data,
// in year order; missing years yield 0.
func Series(agg []YearShares, module string) (years []int, shares []float64) {
	for _, ys := range agg {
		years = append(years, ys.Year)
		shares = append(shares, ys.Shares[module])
	}
	return years, shares
}
