package cluster

import (
	"runtime"
	"testing"

	"repro/internal/core"
)

// FuzzDecodeConfigParam feeds arbitrary strings to the decoder of the
// config a peer fill carries in its query. It must never panic, its
// allocation must stay bounded by the input size, and every config it
// accepts must re-encode to one with the same fingerprint.
func FuzzDecodeConfigParam(f *testing.F) {
	scaled := core.DefaultConfig()
	scaled.TraceScale = 3
	scaled.Rake = false
	for _, cfg := range []core.Config{core.DefaultConfig(), scaled} {
		param, err := EncodeConfigParam(cfg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(param)
	}
	f.Fuzz(func(t *testing.T, in string) {
		before := totalAlloc()
		cfg, err := DecodeConfigParam(in)
		if grown := totalAlloc() - before; grown > 1<<20+64*uint64(len(in)) {
			t.Fatalf("decoding %d bytes allocated %d", len(in), grown)
		}
		if err != nil {
			return
		}
		param, err := EncodeConfigParam(cfg)
		if err != nil {
			t.Fatalf("accepted config does not re-encode: %v", err)
		}
		again, err := DecodeConfigParam(param)
		if err != nil {
			t.Fatalf("re-encoded config rejected: %v", err)
		}
		if again.Fingerprint() != cfg.Fingerprint() {
			t.Fatalf("fingerprint changed across re-encoding: %+v vs %+v", cfg, again)
		}
	})
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
