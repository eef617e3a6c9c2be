package modlog

import (
	"reflect"
	"testing"

	"repro/internal/rng"
	"repro/internal/table"
)

func genEvents(t *testing.T, years ...int) []Event {
	t.Helper()
	var all []Event
	for _, y := range years {
		evs, err := CampusModulesModel(y).Generate(rng.New(11).SplitNamed("modlog-test"))
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, evs...)
	}
	return all
}

func TestEventColumnsRoundTrip(t *testing.T) {
	events := genEvents(t, 2024)
	for _, size := range []int{100, 4096, len(events) + 1} {
		got, err := table.Rows[Event](builtParts(events, size))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, events) {
			t.Fatalf("part size %d: events differ after columnar round trip", size)
		}
	}
}

func TestEventColumnsSpillRoundTrip(t *testing.T) {
	events := genEvents(t, 2011)
	enc, err := table.EncodeStream[Event](EventCodec{}, table.FromSlice[Event](EventCodec{}, events))
	if err != nil {
		t.Fatal(err)
	}
	tab, err := table.DecodeStream[Event](enc, EventCodec{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := table.Rows[Event](tab)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, events) {
		t.Fatal("events differ after an encode/decode round trip")
	}
}

// builtParts returns events as a Concat of resident tables of size rows
// each, so shard scans cross part boundaries.
func builtParts(events []Event, size int) EventTable {
	var parts []EventTable
	for lo := 0; lo < len(events); lo += size {
		parts = append(parts, table.FromSlice[Event](EventCodec{}, events[lo:min(lo+size, len(events))]))
	}
	return table.Concat(parts...)
}

func TestAggregateByYearTableMatchesSliceAcrossShards(t *testing.T) {
	events := genEvents(t, 2011, 2024)
	want := AggregateByYear(events)
	tab := builtParts(events, 500)
	for _, shards := range []int{1, 3, 7} {
		got, err := AggregateByYearTable(tab, shards)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: AggregateByYearTable differs from AggregateByYear", shards)
		}
	}
}

func TestCoLoadsTableMatchesSliceAcrossShards(t *testing.T) {
	events := genEvents(t, 2024)
	want, err := CoLoads(events, 2024)
	if err != nil {
		t.Fatal(err)
	}
	tab := builtParts(events, 333)
	for _, shards := range []int{1, 3, 7} {
		got, err := CoLoadsTable(tab, 2024, shards)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: CoLoadsTable differs from CoLoads", shards)
		}
	}
	if _, err := CoLoadsTable(tab, 2011, 2); err == nil {
		t.Fatal("CoLoadsTable accepted events from the wrong year")
	}
}

// TestEventColumnsRejectCodeOutsideDict: a row whose user or module
// code names no dictionary entry is refused at decode time — Row would
// otherwise panic on it, at render time, outside any restore guard.
func TestEventColumnsRejectCodeOutsideDict(t *testing.T) {
	for _, c := range []struct {
		name          string
		user, modules uint64
	}{{"user", 3, 0}, {"module", 0, 3}} {
		w := table.NewWriter(nil)
		w.Uvarint(1) // one user
		w.String("u0")
		w.Uvarint(1) // one module
		w.String("gcc/12")
		w.Uvarint(1)   // one row
		w.Varint(100)  // time delta
		w.Varint(2024) // year
		w.Uvarint(c.user)
		w.Uvarint(c.modules)
		cols := EventCodec{}.NewColumns(0)
		if err := cols.DecodeFrom(table.NewReader(w.Bytes())); err == nil {
			t.Errorf("%s: decoded a row whose code names no dictionary entry", c.name)
		}
	}
}
