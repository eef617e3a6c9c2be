package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// smokeParams shrinks the benchmark to seconds: tiny cohorts, the four
// trace years F9 needs at the least, a one-second window, and browse at
// 200 requests a second.
func smokeParams() params {
	p := defaultParams(time.Second)
	p.study.N2011, p.study.N2024, p.study.PanelN = 30, 40, 20
	p.study.TraceYears = []int{2011, 2012, 2013, 2014}
	p.study.SimYear = 2012
	p.setupRounds = 2
	p.traceScale = 2
	p.loRPS, p.hiRPS = 200, 200
	p.refSessions = 2
	return p
}

// TestWorkloadsSmoke runs every workload untraced and traced at tiny
// sizes and checks that each metric BENCHMARK.json declares is emitted
// with its unit and that every check passes.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers and runs every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Fatalf("BENCHMARK.json workload %d is %q, the harness's is %q", i, spec.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res, err := runWorkload(context.Background(), w, 7, smokeParams(), traced, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatalf("%s (traced %v): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (traced %v): %d of %d checks failed", w.name, traced, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s (traced %v): %d metrics emitted, BENCHMARK.json declares %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s (traced %v): metric %s = %+v, want unit %s", w.name, traced, m.Name, got, m.Unit)
				}
			}
		}
	}
}
