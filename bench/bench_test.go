package main

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/modlog"
	"repro/internal/rng"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want int
		ok   bool
	}{
		{39, 0, false},
		{40, 750, true},
		{99, 750, true},
		{100, 900, true},
		{199, 900, true},
		{200, 950, true},
		{9999, 950, true},
		{10000, 999, true},
	} {
		got, ok := tailPercentile(tc.n)
		if got != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %d, %v; want %d, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	for pm, want := range map[int]float64{0: 1, 500: 3, 750: 4, 900: 4.6, 1000: 5} {
		if got := percentile(sorted, pm); math.Abs(got-want) > 1e-12 {
			t.Errorf("percentile(%d) = %v, want %v", pm, got, want)
		}
	}
	if got := percentile(nil, 500); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

const promBefore = `# HELP rcpt_http_requests_total HTTP requests by route and status code
# TYPE rcpt_http_requests_total counter
rcpt_http_requests_total{route="GET /v1/tables/{id}",code="200"} 10
rcpt_http_requests_total{route="GET /v1/tables/{id}",code="304"} 2
rcpt_http_requests_total{route="POST /v1/run",code="200"} 1
# TYPE rcpt_http_request_seconds histogram
rcpt_http_request_seconds_bucket{route="GET /v1/tables/{id}",le="0.005"} 11
rcpt_http_request_seconds_bucket{route="GET /v1/tables/{id}",le="+Inf"} 12
rcpt_http_request_seconds_sum{route="GET /v1/tables/{id}"} 0.024
rcpt_http_request_seconds_count{route="GET /v1/tables/{id}"} 12
rcpt_pipeline_runs_total 1
`

const promAfter = `# TYPE rcpt_http_requests_total counter
rcpt_http_requests_total{route="GET /v1/tables/{id}",code="200"} 40
rcpt_http_requests_total{route="GET /v1/tables/{id}",code="304"} 12
rcpt_http_requests_total{route="POST /v1/run",code="200"} 1
rcpt_http_requests_total{route="GET /v1/figures/{id}",code="200"} 5
rcpt_http_request_seconds_bucket{route="GET /v1/tables/{id}",le="0.005"} 51
rcpt_http_request_seconds_bucket{route="GET /v1/tables/{id}",le="+Inf"} 52
rcpt_http_request_seconds_sum{route="GET /v1/tables/{id}"} 0.104
rcpt_http_request_seconds_count{route="GET /v1/tables/{id}"} 52
rcpt_cluster_peer_fills_total{outcome="ok"} 3
rcpt_odd{note="a \"quoted\" value, with spaces"} 7
rcpt_pipeline_runs_total 4
`

func TestPromDelta(t *testing.T) {
	before, err := parseProm(promBefore)
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(promAfter)
	if err != nil {
		t.Fatal(err)
	}
	d := after.delta(before)
	for _, tc := range []struct {
		name  string
		match []string
		want  float64
	}{
		{"rcpt_http_requests_total", nil, 45},
		{"rcpt_http_requests_total", []string{"route", "GET /v1/tables/{id}"}, 40},
		{"rcpt_http_requests_total", []string{"route", "GET /v1/tables/{id}", "code", "304"}, 10},
		{"rcpt_http_requests_total", []string{"route", "POST /v1/run"}, 0},
		{"rcpt_http_requests_total", []string{"route", "GET /v1/figures/{id}"}, 5},
		{"rcpt_http_request_seconds_count", nil, 40},
		{"rcpt_cluster_peer_fills_total", []string{"outcome", "ok"}, 3},
		{"rcpt_odd", []string{"note", `a "quoted" value, with spaces`}, 7},
		{"rcpt_pipeline_runs_total", nil, 3},
		{"rcpt_absent_total", nil, 0},
	} {
		if got := d.sum(tc.name, tc.match...); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("delta sum(%s, %v) = %v, want %v", tc.name, tc.match, got, tc.want)
		}
	}
	if got, want := d.mean("rcpt_http_request_seconds", "route", "GET /v1/tables/{id}"), 0.002; math.Abs(got-want) > 1e-12 {
		t.Errorf("histogram mean = %v, want %v", got, want)
	}
	if got := d.mean("rcpt_http_request_seconds", "route", "POST /v1/run"); got != 0 {
		t.Errorf("mean of an unobserved route = %v, want 0", got)
	}
	if _, err := parseProm("rcpt_broken_total\n"); err == nil {
		t.Error("a sample line without a value parsed")
	}
}

func TestCriticalPath(t *testing.T) {
	stages := []stageInterval{
		{"a", 0, 1},
		{"c", 0, 2}, // ends after b starts: runs beside the path
		{"b", 1, 3},
		{"d", 3.5, 4},
	}
	path, busy, wait := criticalPath(stages)
	if want := []int{3, 2, 0}; !reflect.DeepEqual(path, want) {
		t.Errorf("path = %v, want %v (d, b, a)", path, want)
	}
	if math.Abs(busy-3.5) > 1e-12 || math.Abs(wait-0.5) > 1e-12 {
		t.Errorf("busy, wait = %v, %v; want 3.5, 0.5", busy, wait)
	}

	// Zero-length stages that end where each other start must not send
	// the walk in circles; a late first stage counts its lead as waiting.
	path, busy, wait = criticalPath([]stageInterval{{"x", 2, 2}, {"y", 2, 2}, {"z", 2, 5}})
	if len(path) != 3 || busy != 3 || wait != 0 {
		t.Errorf("zero-length stages: path %v busy %v wait %v", path, busy, wait)
	}
	_, busy, wait = criticalPath([]stageInterval{{"late", 1, 3}, {"early", 0, 0.5}})
	if busy != 2.5 || wait != 0.5 {
		t.Errorf("busy, wait = %v, %v; want 2.5, 0.5", busy, wait)
	}
}

func TestSelfTimesAndLanes(t *testing.T) {
	ms := time.Millisecond
	t0 := time.Now()
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	var rec recorder
	// Children are recorded before the operation that encloses them, as
	// the workloads record them, and the operation's twin in another op
	// must not adopt them.
	rec.add("req", "op", at(1*ms), at(4*ms), 3, 1)
	rec.add("req", "op", at(3*ms), at(6*ms), 3, 1) // overlaps the first
	rec.add("op", "", at(0), at(10*ms), 4, 1)
	rec.add("op", "", at(0), at(10*ms), 3, 1)
	rec.add("stage", "", at(0), at(5*ms), -1, 0)
	rec.add("stage", "", at(2*ms), at(7*ms), -1, 0) // concurrent, not nested
	spans := rec.snapshot()
	if spans[0].Parent != 3 || spans[1].Parent != 3 || spans[3].Parent != -1 {
		t.Fatalf("parents = %d, %d, %d; want 3, 3, -1", spans[0].Parent, spans[1].Parent, spans[3].Parent)
	}
	self := selfTimes(spans)
	if self["op"] != 15*ms || self["req"] != 6*ms || self["stage"] != 10*ms {
		t.Errorf("self times = %v; want op 15ms (10 + 10 - 5 covered), req 6ms, stage 10ms", self)
	}
	tids := lanes(spans)
	if tids[4] == tids[5] {
		t.Errorf("overlapping unnested stages share thread %d", tids[4])
	}
	if tids[0] == tids[1] {
		t.Errorf("overlapping unnested requests share thread %d", tids[0])
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	const n, service = 30, 2 * time.Millisecond
	// 1000/s with one sender that needs 2 ms per request: the backlog
	// grows by a millisecond per request, and latency must include it.
	lat, ok, _, err := openLoop(context.Background(), time.Now(), 1000, n, 1, func(context.Context, int, int) bool {
		time.Sleep(service)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range lat {
		if !ok[i] || d < service {
			t.Fatalf("request %d: latency %v, ok %v; want at least the %v service time", i, d, ok[i], service)
		}
	}
	// The last request is due at 29 ms but cannot start before 58 ms.
	if lat[n-1] < 25*time.Millisecond {
		t.Errorf("last latency %v does not include the %v the request queued", lat[n-1], 29*time.Millisecond)
	}
}

func TestKeySequenceReproducible(t *testing.T) {
	k1, r1 := keySequence(7, 231, 5000)
	k2, r2 := keySequence(7, 231, 5000)
	if !reflect.DeepEqual(k1, k2) || !reflect.DeepEqual(r1, r2) {
		t.Fatal("one seed drew two different sequences")
	}
	k3, _ := keySequence(8, 231, 5000)
	if reflect.DeepEqual(k1, k3) {
		t.Fatal("two seeds drew the same sequence")
	}
	counts := make([]int, 231)
	revalidations := 0
	for i, k := range k1 {
		counts[k]++
		if r1[i] {
			revalidations++
		}
	}
	top, second := 0, 0
	for _, c := range counts {
		if c > top {
			top, second = c, top
		} else if c > second {
			second = c
		}
	}
	// Zipf(1.1): the hottest key gets about 2^1.1 times the next one's
	// share, far above the uniform 1/231.
	if top < 5000/20 || float64(top) < 1.5*float64(second) {
		t.Errorf("hottest key drawn %d times, next %d: not Zipf-skewed", top, second)
	}
	if revalidations < 1100 || revalidations > 1400 {
		t.Errorf("%d of 5000 requests revalidate, want about a quarter", revalidations)
	}
}

func TestCheckGet(t *testing.T) {
	body := []byte(`{"ok":true}`)
	tag := etagOf(body)
	for _, tc := range []struct {
		name        string
		r           reply
		inm, want   string
		shouldError bool
	}{
		{"200 matching its ETag", reply{200, tag, body}, "", tag, false},
		{"200 whose body does not hash to its ETag", reply{200, `"00"`, body}, "", "", true},
		{"200 with another key's ETag", reply{200, tag, body}, "", `"11"`, true},
		{"304 for the ETag sent", reply{304, tag, nil}, tag, tag, false},
		{"304 without If-None-Match", reply{304, tag, nil}, "", tag, true},
		{"304 naming another ETag", reply{304, `"22"`, nil}, tag, tag, true},
		{"200 to a matching revalidation", reply{200, tag, body}, tag, tag, true},
		{"error status", reply{500, "", []byte("boom")}, "", "", true},
	} {
		if err := checkGet(tc.r, tc.inm, tc.want); (err != nil) != tc.shouldError {
			t.Errorf("%s: err = %v", tc.name, err)
		}
	}
}

func TestModlogStallsMatchesGenerator(t *testing.T) {
	// A config seed whose 2011 module log never finishes: a cold-study
	// run hung on it.
	if !modlogStalls(rng.New(3109041469206295453).SplitNamed("modlog-2011"), modlog.CampusModulesModel(2011)) {
		t.Fatal("the replica passes a seed on which the 2011 generator never returns")
	}
	// Where the replica passes a stream, it must consume it exactly as
	// the generator does, so the two streams draw the same next value.
	checked := 0
	for seed := uint64(0); checked < 40; seed++ {
		for _, year := range []int{2011, 2019} {
			m := modlog.CampusModulesModel(year)
			replica, real := rng.New(seed), rng.New(seed)
			if modlogStalls(replica, m) {
				continue
			}
			if _, err := m.Generate(real); err != nil {
				t.Fatal(err)
			}
			if replica.Uint64() != real.Uint64() {
				t.Fatalf("seed %d, year %d: the replica drew a different number of values than Generate", seed, year)
			}
			checked++
		}
	}
}
