package core

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/table"
)

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestDecodersBoundCounts: a tiny payload that claims 2^28 elements, or
// a 16 MiB string, must be refused before anything is allocated for
// them — every element takes at least one byte, so no count or length
// may exceed the unread bytes.
func TestDecodersBoundCounts(t *testing.T) {
	claim := func(write func(w *table.Writer)) []byte {
		w := table.NewWriter(nil)
		write(w)
		return w.Bytes()
	}
	rake := claim(func(w *table.Writer) {
		w.String(payloadRake)
		w.Varint(3)
		w.Uvarint(1)
		for i := 0; i < 5; i++ {
			w.Float64(1)
		}
		w.Uvarint(1 << 28) // deviation-trace entries
	})
	modagg := claim(func(w *table.Writer) {
		w.String(payloadModAgg)
		w.Uvarint(1 << 28) // years
	})
	magic := claim(func(w *table.Writer) {
		w.Uvarint(1 << 24) // a kind marker 16 MiB long
	})
	sim := claim(func(w *table.Writer) {
		w.String(payloadSim)
		w.Uvarint(1 << 28) // job results
		w.Raw(make([]byte, 64))
	})
	block := claim(func(w *table.Writer) {
		w.String(payloadJobs)
		w.Uvarint(1 << 28) // table block bytes
		w.Raw(make([]byte, 64))
	})
	for _, c := range []struct {
		name    string
		payload []byte
		decode  func([]byte) error
	}{
		{"rake", rake, func(p []byte) error { _, err := decodeRakePayload(p); return err }},
		{"modagg", modagg, func(p []byte) error { _, err := decodeModAggPayload(p); return err }},
		{"magic", magic, func(p []byte) error { _, err := decodeSimPayload(p); return err }},
		{"sim", sim, func(p []byte) error { _, err := decodeSimPayload(p); return err }},
		{"table block", block, func(p []byte) error { _, err := jobsCodec.decode(p); return err }},
	} {
		before := totalAlloc()
		err := c.decode(c.payload)
		grown := totalAlloc() - before
		if err == nil {
			t.Errorf("%s: a %d-byte payload claiming more than it holds decoded", c.name, len(c.payload))
		}
		if grown > 1<<20 {
			t.Errorf("%s: decoding %d bytes allocated %d", c.name, len(c.payload), grown)
		}
	}
}

// fuzzConfig is the run whose payloads seed FuzzStageDecoders: every
// cacheable stage kind, at small sizes so the mutator stays fast. Two
// trace years give the corpus a second year's trace and telemetry
// tables and a modlog-merge payload that carries more than one year.
func fuzzConfig() Config {
	return Config{
		Seed:       5,
		N2011:      20,
		N2024:      24,
		TraceYears: []int{2011, 2024},
		SimYear:    2011,
		Policy:     sched.EASYBackfill,
		Rake:       true,
		PanelN:     6,
		NoiseRate:  0.05,
	}
}

// FuzzStageDecoders feeds arbitrary bytes to the decoder of every
// cacheable stage in the spec list and of T16's two sweep halves,
// seeded with the payloads of a real cold run and of its T16 render.
// The seeds must round-trip byte-identically; for any input, decoding
// must not panic, must allocate in proportion to the input, and an
// accepted payload must re-encode to a fixed point. For every table and
// sim kind, holding the input and forcing its first read must accept
// exactly what the eager decoder accepts, with equal values.
func FuzzStageDecoders(f *testing.F) {
	cfg := fuzzConfig()
	cache := newMapStageCache()
	a, err := RunWithOptions(context.Background(), cfg, RunOptions{StageCache: cache})
	if err != nil {
		f.Fatal(err)
	}
	if _, err := table16(a); err != nil {
		f.Fatal(err)
	}
	specs, err := stages(cfg, newArtifacts(cfg))
	if err != nil {
		f.Fatal(err)
	}
	for _, h := range sweepHalves(cfg) {
		specs = append(specs, h.spec(cfg, new([]float64)))
	}
	var kinds []spec
	index := map[string]int{}
	sc := newStageCacher(nil)
	for _, s := range specs {
		key := sc.key(s)
		if s.decode == nil {
			continue
		}
		// The sweep halves share a version tag but not a decoder: each
		// refuses the other's share count.
		kind := s.version
		if s.version == verSweep {
			kind = s.name
		}
		if _, ok := index[kind]; !ok {
			index[kind] = len(kinds)
			kinds = append(kinds, s)
		}
		seed, ok := cache.m[key]
		if !ok {
			f.Fatalf("cold run stored no payload for %s", s.name)
		}
		v, err := s.decode(seed)
		if err != nil {
			f.Fatalf("%s: seed does not decode: %v", s.name, err)
		}
		if again, err := s.encode(v); err != nil || !bytes.Equal(again, seed) {
			f.Fatalf("%s: seed does not round-trip (err %v)", s.name, err)
		}
		f.Add(uint8(index[kind]), seed)
	}

	f.Fuzz(func(t *testing.T, kind uint8, in []byte) {
		s := kinds[int(kind)%len(kinds)]
		before := totalAlloc()
		v, err := s.decode(in)
		if grown := totalAlloc() - before; grown > 1<<20+64*uint64(len(in)) {
			t.Fatalf("%s: decoding %d bytes allocated %d", s.version, len(in), grown)
		}
		heldAgrees(t, s, in, v, err)
		if err != nil {
			return
		}
		enc, err := s.encode(v)
		if err != nil {
			t.Fatalf("%s: accepted payload does not re-encode: %v", s.version, err)
		}
		v2, err := s.decode(enc)
		if err != nil {
			t.Fatalf("%s: re-encoded payload rejected: %v", s.version, err)
		}
		enc2, err := s.encode(v2)
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("%s: encoding is not a fixed point of decode (err %v)", s.version, err)
		}
	})
}

// heldAgrees checks a held kind against its eager decoder's verdict on
// in (v, err): holding in and forcing its first read must accept
// exactly what the eager decoder accepts, with equal values. A table's
// first read decodes its columns; a sim's is the eager decode itself
// (its join needs the feed), so its hold must agree with it and keep
// the same metrics. The panel's hold checks only the kind, and its
// first read is the eager decode.
func heldAgrees(t *testing.T, s spec, in []byte, v any, err error) {
	t.Helper()
	if s.hold == nil || s.name == "panel" {
		return
	}
	if strings.HasPrefix(s.name, "sim-") {
		held, herr := readSimPayload(in, false)
		if (herr == nil) != (err == nil) {
			t.Fatalf("%s: hold err %v, eager decode err %v", s.version, herr, err)
		}
		if err == nil && fmt.Sprintf("%#v", held.res.Metrics) != fmt.Sprintf("%#v", v.(simOutput).res.Metrics) {
			t.Fatalf("%s: hold kept metrics %+v, decode %+v", s.version, held.res.Metrics, v.(simOutput).res.Metrics)
		}
		return
	}
	held, herr := s.hold(in, nil)
	if herr == nil {
		herr = held.(interface{ Load() error }).Load()
	}
	if (herr == nil) != (err == nil) {
		t.Fatalf("%s: hold and first read err %v, eager decode err %v", s.version, herr, err)
	}
	if err != nil {
		return
	}
	type lener interface{ Len(table.CountMode) int }
	if hl, el := held.(lener).Len(table.Exact), v.(lener).Len(table.Exact); hl != el {
		t.Fatalf("%s: held table has %d rows, decoded %d", s.version, hl, el)
	}
	// Encoding is a function of the rows alone.
	hb, err1 := s.encode(held)
	eb, err2 := s.encode(v)
	if err1 != nil || err2 != nil || !bytes.Equal(hb, eb) {
		t.Fatalf("%s: held table's rows differ from the decoded table's (%v, %v)", s.version, err1, err2)
	}
}

// TestStagePayloadsAreExactSize: a stage cache keeps the payload slice
// it is handed, so every payload a run stores, the table-carrying trace,
// telemetry, cohort and panel payloads among them, carries no spare
// capacity for the cache to keep alive besides its bytes.
func TestStagePayloadsAreExactSize(t *testing.T) {
	cache := newMapStageCache()
	runCached(t, fuzzConfig(), cache)
	keys := make([]string, 0, len(cache.m))
	for key := range cache.m {
		keys = append(keys, key)
	}
	slices.Sort(keys)
	seen := map[string]bool{}
	for _, key := range keys {
		p := cache.m[key]
		kind := table.NewReader(p).String()
		seen[kind] = true
		if cap(p) != len(p) {
			t.Errorf("%s payload %.8s: cap %d, len %d", kind, key, cap(p), len(p))
		}
	}
	for _, kind := range []string{payloadJobs, payloadEvents, payloadCohort, payloadPanel} {
		if !seen[kind] {
			t.Errorf("the run stored no %s payload", kind)
		}
	}
}

// BenchmarkEncodeStagePayload times the encode of one stage output
// right as its stage computed it, on the root benchmarks' study config:
// the 2024 trace month, the 2019 telemetry year and the 2024 cohort.
// payload-b is the payload's length: B/op near it means an encode
// allocates little besides the payload it returns.
func BenchmarkEncodeStagePayload(b *testing.B) {
	cfg := Config{
		Seed: 42, N2011: 200, N2024: 600,
		TraceYears: []int{2011, 2015, 2019, 2024}, SimYear: 2024,
		Policy: sched.EASYBackfill, Rake: true, PanelN: 300, NoiseRate: 0.05,
	}
	specs, err := stages(cfg, newArtifacts(cfg))
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct{ name, stage string }{
		{"trace", "trace-2024"}, {"telemetry", "modlog-2019"}, {"cohort", "cohort-2024"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := specs[slices.IndexFunc(specs, func(s spec) bool { return s.name == bc.stage })]
			out, err := s.run()
			if err != nil {
				b.Fatal(err)
			}
			payload, err := s.encode(out)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.encode(out); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(payload)), "payload-b")
		})
	}
}
