package trace

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/rng"
)

// swfGPUPartition is the GPU partition number ExportSWF writes.
const swfGPUPartition = 2

// FuzzImportSWF feeds arbitrary bytes to the SWF importer, the decoder
// for archive traces read from disk, seeded with ExportSWF's output for
// a few generated jobs. It must never panic, and whatever it accepts
// must survive an export/import round trip unchanged.
func FuzzImportSWF(f *testing.F) {
	jobs, err := CampusModel(2020).Generate(rng.New(3), 100)
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{0, 1, 4} {
		var buf bytes.Buffer
		if err := ExportSWF(&buf, jobs[:n]); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		jobs, err := ImportSWF(bytes.NewReader(in), 2020, swfGPUPartition)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := ExportSWF(&buf, jobs); err != nil {
			t.Fatalf("accepted jobs do not export: %v", err)
		}
		again, err := ImportSWF(&buf, 2020, swfGPUPartition)
		if err != nil {
			t.Fatalf("exported jobs do not import: %v", err)
		}
		if !reflect.DeepEqual(jobs, again) {
			t.Fatalf("round trip changed the jobs:\n%+v\n%+v", jobs, again)
		}
	})
}
