package modlog

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/rng"
)

func TestEventValidate(t *testing.T) {
	ok := Event{Time: 10, Year: 2020, User: "u1", Module: "python/3.9"}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Event{
		{Time: -1, Year: 2020, User: "u", Module: "m"},
		{Time: 0, Year: 0, User: "u", Module: "m"},
		{Time: 0, Year: 2020, User: "", Module: "m"},
		{Time: 0, Year: 2020, User: "u", Module: ""},
		{Time: 0, Year: 2020, User: "u", Module: "py thon"},
		{Time: 0, Year: 2020, User: "u u", Module: "m"},
	}
	for i, e := range bad {
		if err := e.Validate(); err == nil {
			t.Fatalf("bad event %d accepted", i)
		}
	}
}

func TestEventName(t *testing.T) {
	if (Event{Module: "python/3.9"}).Name() != "python" {
		t.Fatal("versioned name")
	}
	if (Event{Module: "fortran"}).Name() != "fortran" {
		t.Fatal("unversioned name")
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	events := []Event{
		{Time: 5, Year: 2011, User: "alice", Module: "matlab/2011a"},
		{Time: 9, Year: 2024, User: "bob", Module: "python/3.11"},
	}
	var buf bytes.Buffer
	if err := Write(&buf, events); err != nil {
		t.Fatal(err)
	}
	got, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != events[0] || got[1] != events[1] {
		t.Fatalf("round trip %v", got)
	}
}

func TestParseFailureInjection(t *testing.T) {
	cases := []string{
		"1 2020 u\n",         // too few fields
		"x 2020 u m\n",       // bad time
		"1 twenty u m\n",     // bad year
		"-4 2020 u m\n",      // negative time
		"1 2020 u m extra\n", // too many fields
	}
	for i, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
	// Blank lines are fine; empty input yields no events.
	got, err := Parse(strings.NewReader("\n\n"))
	if err != nil || len(got) != 0 {
		t.Fatalf("blank input: %v %v", got, err)
	}
}

func TestWriteRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []Event{{Time: 0, Year: 0, User: "u", Module: "m"}}); err == nil {
		t.Fatal("invalid event written")
	}
}

func TestModelValidate(t *testing.T) {
	if err := CampusModulesModel(2024).Validate(); err != nil {
		t.Fatal(err)
	}
	m := CampusModulesModel(2024)
	m.ModuleShare["nonexistent-module"] = 0.5
	if err := m.Validate(); err == nil {
		t.Fatal("unknown module accepted")
	}
	m = CampusModulesModel(2024)
	m.Users = 0
	if err := m.Validate(); err == nil {
		t.Fatal("zero users accepted")
	}
	m = CampusModulesModel(2024)
	m.ModuleShare = map[string]float64{"python": -1}
	if err := m.Validate(); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestGenerateSortedAndValid(t *testing.T) {
	m := CampusModulesModel(2020)
	events, err := m.Generate(rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) < 5000 {
		t.Fatalf("only %d events", len(events))
	}
	var prev int64 = -1
	for _, e := range events {
		if err := e.Validate(); err != nil {
			t.Fatal(err)
		}
		if e.Time < prev {
			t.Fatal("not sorted")
		}
		prev = e.Time
	}
}

// TestGenerateLargeRepertoireTerminates: the 2011 model gives some
// modules zero weight, and this stream draws a user repertoire larger
// than the modules that can be drawn. Generate must still return.
func TestGenerateLargeRepertoireTerminates(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := CampusModulesModel(2011).Generate(rng.New(3109041469206295453).SplitNamed("modlog-2011"))
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Generate did not return: the repertoire loop waits for an undrawable module")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	m := CampusModulesModel(2015)
	a, _ := m.Generate(rng.New(8))
	b, _ := m.Generate(rng.New(8))
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs", i)
		}
	}
}

func TestVersionsTrackEra(t *testing.T) {
	old, _ := CampusModulesModel(2011).Generate(rng.New(9))
	recent, _ := CampusModulesModel(2024).Generate(rng.New(9))
	hasModule := func(events []Event, mod string) bool {
		for _, e := range events {
			if e.Module == mod {
				return true
			}
		}
		return false
	}
	if hasModule(old, "python/3.11") {
		t.Fatal("2011 log contains python 3.11")
	}
	if hasModule(recent, "python/2.7") {
		t.Fatal("2024 log contains python 2.7")
	}
}

func TestAggregateByYear(t *testing.T) {
	events := []Event{
		{Time: 1, Year: 2011, User: "a", Module: "python/2.7"},
		{Time: 2, Year: 2011, User: "a", Module: "python/2.7"}, // repeat: same user
		{Time: 3, Year: 2011, User: "b", Module: "matlab/2011a"},
		{Time: 4, Year: 2024, User: "a", Module: "python/3.11"},
		{Time: 5, Year: 2024, User: "b", Module: "python/3.11"},
	}
	agg := AggregateByYear(events)
	if len(agg) != 2 || agg[0].Year != 2011 || agg[1].Year != 2024 {
		t.Fatalf("agg %v", agg)
	}
	if agg[0].Users != 2 || agg[0].Shares["python"] != 0.5 || agg[0].Shares["matlab"] != 0.5 {
		t.Fatalf("2011 %v", agg[0])
	}
	if agg[1].Shares["python"] != 1.0 {
		t.Fatalf("2024 %v", agg[1])
	}
	years, shares := Series(agg, "python")
	if len(years) != 2 || shares[0] != 0.5 || shares[1] != 1.0 {
		t.Fatalf("series %v %v", years, shares)
	}
	_, matlab := Series(agg, "matlab")
	if matlab[1] != 0 {
		t.Fatal("missing year should be 0")
	}
}

func TestPythonRisesAcrossYears(t *testing.T) {
	r := rng.New(12)
	var all []Event
	for _, y := range []int{2011, 2017, 2024} {
		ev, err := CampusModulesModel(y).Generate(r.SplitNamed(string(rune('a' + y - 2011))))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, ev...)
	}
	agg := AggregateByYear(all)
	_, py := Series(agg, "python")
	if !(py[0] < py[1] && py[1] < py[2]) {
		t.Fatalf("python share not rising: %v", py)
	}
	_, ftn := Series(agg, "fortran")
	if ftn[2] >= ftn[0] {
		t.Fatalf("fortran share not falling: %v", ftn)
	}
	_, cuda := Series(agg, "cuda")
	if cuda[2] <= cuda[0] {
		t.Fatalf("cuda share not rising: %v", cuda)
	}
}

// Property: round trip is identity for valid events.
func TestQuickRoundTrip(t *testing.T) {
	f := func(tRaw uint32, yRaw, uRaw, mRaw uint8) bool {
		mods := []string{"python/3.9", "gcc/7.3", "cuda/12.1", "fortran"}
		e := Event{
			Time:   int64(tRaw),
			Year:   int(yRaw%30) + 2000,
			User:   "u" + string(rune('a'+uRaw%26)),
			Module: mods[mRaw%4],
		}
		var buf bytes.Buffer
		if err := Write(&buf, []Event{e}); err != nil {
			return false
		}
		got, err := Parse(&buf)
		return err == nil && len(got) == 1 && got[0] == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
