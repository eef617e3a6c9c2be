package trace

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzParseAccounting feeds arbitrary bytes to the accounting-log
// parser, the decoder for trace files read from disk. It must never
// panic, and whatever it accepts must survive a write/parse round trip
// unchanged.
func FuzzParseAccounting(f *testing.F) {
	j2 := validJob()
	j2.ID, j2.GPUs, j2.State, j2.Elapsed, j2.Language = 2, 8, StateTimeout, j2.Limit, ""
	for _, jobs := range [][]Job{nil, {validJob()}, {validJob(), j2}} {
		var buf bytes.Buffer
		if err := WriteAccounting(&buf, jobs); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		jobs, err := ParseAccounting(bytes.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteAccounting(&buf, jobs); err != nil {
			t.Fatalf("accepted jobs do not write back: %v", err)
		}
		again, err := ParseAccounting(&buf)
		if err != nil {
			t.Fatalf("written jobs do not parse: %v", err)
		}
		if !slices.Equal(jobs, again) {
			t.Fatalf("round trip changed the jobs:\n%+v\n%+v", jobs, again)
		}
	})
}
