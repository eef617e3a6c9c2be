package trace

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/rng"
	"repro/internal/table"
)

func genYear(t *testing.T, year int) []Job {
	t.Helper()
	m := CampusModel(year)
	jobs, err := m.Generate(rng.New(42).SplitNamed("trace-test"), uint64(year)*10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return jobs
}

func TestGenerateStreamMatchesGenerate(t *testing.T) {
	m := CampusModel(2024)
	want, err := m.Generate(rng.New(7).SplitNamed("g"), 1000)
	if err != nil {
		t.Fatal(err)
	}
	var got []Job
	maxPending := 0
	pendingProbe := 0
	err = m.GenerateStream(rng.New(7).SplitNamed("g"), 1000, func(j Job) error {
		got = append(got, j)
		pendingProbe = len(want) - len(got)
		if pendingProbe > maxPending {
			maxPending = pendingProbe
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("GenerateStream output differs from Generate")
	}
}

func TestJobColumnsRoundTrip(t *testing.T) {
	jobs := genYear(t, 2024)
	for _, bs := range []int{64, 1000, len(jobs) + 1} {
		tab, err := table.FromSlice[Job](JobCodec{}, table.Options{BatchSize: bs}, jobs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := table.Rows[Job](tab)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, jobs) {
			t.Fatalf("BatchSize=%d: jobs differ after columnar round trip", bs)
		}
	}
}

func TestJobColumnsSpillRoundTrip(t *testing.T) {
	jobs := genYear(t, 2011)
	tab, err := table.FromSlice[Job](JobCodec{}, table.Options{
		BatchSize: 512, SpillDir: t.TempDir(), Resident: 2,
	}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := table.Rows[Job](tab)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, jobs) {
		t.Fatal("jobs differ after spill round trip")
	}
}

func TestSummarizeTableMatchesSlice(t *testing.T) {
	jobs := append(genYear(t, 2011), genYear(t, 2024)...)
	want := SummarizeByYear(jobs)
	tab, err := table.FromSlice[Job](JobCodec{}, table.Options{BatchSize: 777}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := SummarizeTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	// Bit-exact, including the float sums: same accumulation order.
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SummarizeTable differs from SummarizeByYear:\n got %+v\nwant %+v", got, want)
	}
}

func TestUserUsageTableMatchesSlice(t *testing.T) {
	jobs := genYear(t, 2024)
	want := UserUsage(jobs)
	tab, err := table.FromSlice[Job](JobCodec{}, table.Options{BatchSize: 300}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UserUsageTable(tab)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("UserUsageTable differs from UserUsage")
	}
}

func TestWriteAccountingTableBytes(t *testing.T) {
	jobs := genYear(t, 2024)
	var want bytes.Buffer
	if err := WriteAccounting(&want, jobs); err != nil {
		t.Fatal(err)
	}
	tab, err := table.FromSlice[Job](JobCodec{}, table.Options{BatchSize: 129}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := WriteAccountingTable(&got, tab); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("WriteAccountingTable bytes differ from WriteAccounting")
	}
}

// TestJobColumnsRejectCodeOutsideDict: a row whose dictionary code
// names no dictionary entry is refused at decode time — Row would
// otherwise panic on it.
func TestJobColumnsRejectCodeOutsideDict(t *testing.T) {
	w := table.NewWriter(nil)
	for i := 0; i < 5; i++ {
		w.Uvarint(0) // five empty dictionaries
	}
	w.Uvarint(1) // one row
	w.Varint(1)  // id delta
	w.Varint(1)  // submit delta
	for i := 0; i < 3; i++ {
		w.Uvarint(0) // user, account, partition codes: no entry to name
	}
	w.Varint(2024)
	for i := 0; i < 3; i++ {
		w.Uvarint(1) // nodes, cores, gpus
	}
	w.Varint(60)
	w.Varint(30)
	w.Uvarint(0) // state
	w.Uvarint(0) // language
	cols := JobCodec{}.NewColumns()
	if err := cols.DecodeFrom(table.NewReader(w.Bytes())); err == nil {
		t.Fatal("decoded a row whose codes name no dictionary entry")
	}
}
