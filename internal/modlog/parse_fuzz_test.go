package modlog

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/rng"
)

// FuzzParse feeds arbitrary bytes to the telemetry log parser, the
// decoder for module-load logs read from disk, seeded with Write's
// output for a few generated events. It must never panic, and whatever
// it accepts must survive a write/parse round trip unchanged.
func FuzzParse(f *testing.F) {
	events, err := CampusModulesModel(2011).Generate(rng.New(3))
	if err != nil {
		f.Fatal(err)
	}
	for _, n := range []int{0, 1, 5} {
		var buf bytes.Buffer
		if err := Write(&buf, events[:n]); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		events, err := Parse(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, events); err != nil {
			t.Fatalf("accepted events do not write back: %v", err)
		}
		again, err := Parse(&buf)
		if err != nil {
			t.Fatalf("written events do not parse: %v", err)
		}
		if !reflect.DeepEqual(events, again) {
			t.Fatalf("round trip changed the events:\n%+v\n%+v", events, again)
		}
	})
}
