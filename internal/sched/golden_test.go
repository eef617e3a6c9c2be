package sched

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/rng"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/campus_sims.golden")

// TestCampusSimsGolden pins the simulator's output on campus traces
// the pipeline simulates, bit for bit: one SHA-256 over Results,
// Samples and Metrics per (trace year, generator seed, options). The
// 2019 month runs under the options of the three sim stages (EASY with
// fairshare, FCFS, conservative); the 2024 month, whose deeper queues
// put the most equal release times in EASY's shadow, runs EASY with
// fairshare. The differential oracle checks the fast paths against the
// reference on small random traces; this checks that a change to them
// leaves the pipeline's own sims unchanged.
func TestCampusSimsGolden(t *testing.T) {
	easy := Options{Policy: EASYBackfill, Fairshare: true}
	cases := []struct {
		year int
		name string
		opt  Options
	}{
		{2019, "easy-fairshare", easy},
		{2019, "fcfs", Options{Policy: FCFS}},
		{2019, "conservative", Options{Policy: ConservativeBackfill}},
		{2024, "easy-fairshare", easy},
	}
	cluster := DefaultCampusCluster()
	var b strings.Builder
	for _, c := range cases {
		for _, seed := range []uint64{1, 2} {
			jobs, err := trace.CampusModel(c.year).Generate(rng.New(seed), 1)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Simulate(cluster, jobs, c.opt)
			if err != nil {
				t.Fatalf("%d seed %d %s: %v", c.year, seed, c.name, err)
			}
			fmt.Fprintf(&b, "%d seed=%d %s jobs=%d %s\n", c.year, seed, c.name, len(jobs), hashResult(res))
		}
	}
	path := filepath.Join("testdata", "campus_sims.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s (run `go test ./internal/sched -run CampusSimsGolden -update`): %v", path, err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("campus sims differ from %s:\ngot:\n%swant:\n%s", path, got, want)
	}
}

// hashResult digests a simulation's whole output. %v prints every
// float in its shortest round-tripping form, so equal digests mean
// bit-identical results.
func hashResult(res *Result) string {
	h := sha256.New()
	for _, r := range res.Results {
		fmt.Fprintf(h, "%+v\n", r)
	}
	for _, s := range res.Samples {
		fmt.Fprintf(h, "%+v\n", s)
	}
	fmt.Fprintf(h, "%+v\n", res.Metrics)
	return hex.EncodeToString(h.Sum(nil))
}
