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
	for _, size := range []int{64, 1000, len(jobs) + 1} {
		got, err := table.Rows[Job](builtParts(jobs, size))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, jobs) {
			t.Fatalf("part size %d: jobs differ after columnar round trip", size)
		}
	}
}

func TestJobColumnsSpillRoundTrip(t *testing.T) {
	jobs := genYear(t, 2011)
	enc, err := table.EncodeStream[Job](JobCodec{}, table.FromSlice[Job](JobCodec{}, jobs))
	if err != nil {
		t.Fatal(err)
	}
	tab, err := table.DecodeStream[Job](enc, JobCodec{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := table.Rows[Job](tab)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, jobs) {
		t.Fatal("jobs differ after an encode/decode round trip")
	}
}

// builtParts returns jobs as a Concat of resident tables of size rows
// each.
func builtParts(jobs []Job, size int) JobTable {
	var parts []JobTable
	for lo := 0; lo < len(jobs); lo += size {
		parts = append(parts, table.FromSlice[Job](JobCodec{}, jobs[lo:min(lo+size, len(jobs))]))
	}
	return table.Concat(parts...)
}

func TestSummarizeTableMatchesSlice(t *testing.T) {
	jobs := append(genYear(t, 2011), genYear(t, 2024)...)
	want := SummarizeByYear(jobs)
	tab := builtParts(jobs, 777)
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
	tab := builtParts(jobs, 300)
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
	tab := builtParts(jobs, 129)
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
	cols := JobCodec{}.NewColumns(0)
	if err := cols.DecodeFrom(table.NewReader(w.Bytes())); err == nil {
		t.Fatal("decoded a row whose codes name no dictionary entry")
	}
}
