package cluster

import (
	"bytes"
	"encoding/json"
	"runtime"
	"testing"

	"repro/internal/core"
)

// FuzzStageRequest feeds arbitrary bytes to the decoder of a stage
// steal's body, the one peer body that carries a config. It must never
// panic, its allocation must stay bounded by the input size, and every
// config that validates must re-encode to one with the same
// fingerprint.
func FuzzStageRequest(f *testing.F) {
	scaled := core.DefaultConfig()
	scaled.TraceScale = 3
	scaled.Rake = false
	for _, cfg := range []core.Config{core.DefaultConfig(), scaled} {
		raw, err := json.Marshal(StageRequest{Config: cfg, Stage: "trace-2011"})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		before := totalAlloc()
		var sr StageRequest
		err := json.NewDecoder(bytes.NewReader(in)).Decode(&sr)
		if grown := totalAlloc() - before; grown > 1<<20+64*uint64(len(in)) {
			t.Fatalf("decoding %d bytes allocated %d", len(in), grown)
		}
		if err != nil || sr.Config.Validate() != nil {
			return
		}
		raw, err := json.Marshal(sr)
		if err != nil {
			t.Fatalf("accepted stage request does not re-encode: %v", err)
		}
		var again StageRequest
		if err := json.Unmarshal(raw, &again); err != nil {
			t.Fatalf("re-encoded stage request rejected: %v", err)
		}
		if again.Config.Fingerprint() != sr.Config.Fingerprint() {
			t.Fatalf("fingerprint changed across re-encoding: %+v vs %+v", sr.Config, again.Config)
		}
	})
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
