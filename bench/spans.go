package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced run, as written out: a client
// operation, a request inside it, or a probe call into one layer.
type span struct {
	Name       string
	Start, End time.Duration // since the run's first span began
	Parent     int           // index of the enclosing span, -1 for none
	Op         int           // client operation id, -1 for probe and set-up spans
	Track      int           // 0 for the probe, 1.. for client workers
}

// rawSpan is a span as recorded: absolute times, and its parent named
// rather than indexed, so recording one returns nothing to its caller.
type rawSpan struct {
	name, parent string
	start, end   time.Time
	op, track    int
}

// recorder keeps a traced run's spans in memory until the workload
// ends. A nil recorder (the untraced run) records nothing, so the
// workloads call it unconditionally.
type recorder struct {
	mu    sync.Mutex
	spans []rawSpan
}

// add records a span the caller timed. parent names the enclosing span
// of the same operation, empty for none.
func (r *recorder) add(name, parent string, start, end time.Time, op, track int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, rawSpan{name: name, parent: parent, start: start, end: end, op: op, track: track})
}

// snapshot returns the spans recorded so far, timed from the earliest
// start, each linked to the span of its parent's name and operation
// whose interval holds it.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	raw := append([]rawSpan(nil), r.spans...)
	r.mu.Unlock()
	if len(raw) == 0 {
		return nil
	}
	base := raw[0].start
	type named struct {
		name string
		op   int
	}
	byName := map[named][]int{}
	for i, s := range raw {
		if s.start.Before(base) {
			base = s.start
		}
		byName[named{s.name, s.op}] = append(byName[named{s.name, s.op}], i)
	}
	out := make([]span, len(raw))
	for i, s := range raw {
		out[i] = span{Name: s.name, Start: s.start.Sub(base), End: s.end.Sub(base), Parent: -1, Op: s.op, Track: s.track}
		if s.parent == "" {
			continue
		}
		for _, j := range byName[named{s.parent, s.op}] {
			if !raw[j].start.After(s.start) && !raw[j].end.Before(s.end) {
				out[i].Parent = j
				break
			}
		}
	}
	return out
}

// traceEvent is one Chrome trace-event "complete" event, the JSON form
// Perfetto and chrome://tracing open.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChromeTrace writes spans to dir/<name>.trace.json.
func writeChromeTrace(dir, name string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	tids := lanes(spans)
	events := make([]traceEvent, len(spans))
	for i, s := range spans {
		events[i] = traceEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: tids[i],
			Ts:   float64(s.Start) / float64(time.Microsecond),
			Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
			Args: map[string]int{"span": i, "parent": s.Parent, "op": s.Op},
		}
	}
	path := filepath.Join(dir, name+".trace.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	encErr := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	flushErr := w.Flush()
	closeErr := f.Close()
	for _, err := range []error{encErr, flushErr, closeErr} {
		if err != nil {
			return "", fmt.Errorf("writing %s: %w", path, err)
		}
	}
	return path, nil
}

// lanes assigns each span a trace thread id: its track times 1000 plus
// a lane, where spans sharing a lane either nest or do not overlap, the
// only layout trace viewers draw faithfully. Concurrent pipeline stages
// on the probe's track spread over several lanes.
func lanes(spans []span) []int {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if sa.Track != sb.Track {
			return sa.Track < sb.Track
		}
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		return sa.End > sb.End
	})
	tids := make([]int, len(spans))
	open := map[int][][]time.Duration{} // per track, per lane: ends of the open spans
	for _, i := range order {
		s := spans[i]
		stacks := open[s.Track]
		lane := 0
		for ; lane < len(stacks); lane++ {
			st := stacks[lane]
			for len(st) > 0 && st[len(st)-1] <= s.Start {
				st = st[:len(st)-1]
			}
			stacks[lane] = st
			if len(st) == 0 || st[len(st)-1] >= s.End {
				break
			}
		}
		if lane == len(stacks) {
			stacks = append(stacks, nil)
		}
		stacks[lane] = append(stacks[lane], s.End)
		open[s.Track] = stacks
		tids[i] = s.Track*1000 + lane
	}
	return tids
}

// selfTimes returns, per span name, the summed self time of its spans:
// each span's duration minus the part of its interval its children
// cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := map[string]time.Duration{}
	for i, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, spans, children[i])
	}
	return out
}

// covered returns how much of parent's interval the union of the kids'
// intervals covers.
func covered(parent span, spans []span, kids []int) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, x := range iv {
		switch {
		case i == 0:
			curLo, curHi = x[0], x[1]
		case x[0] > curHi:
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		case x[1] > curHi:
			curHi = x[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// stageInterval is one pipeline stage's execution, in seconds since the
// run began.
type stageInterval struct {
	name       string
	start, end float64
}

// criticalPath walks a run's stages backwards from the last one to end,
// taking as each stage's predecessor the stage with the latest end at or
// before its start. It returns the path (last stage first), the stage
// time on it, and the waiting time: the gaps between path stages and
// before the first one.
func criticalPath(stages []stageInterval) (path []int, busy, wait float64) {
	if len(stages) == 0 {
		return nil, 0, 0
	}
	cur, begin := 0, stages[0].start
	for i, s := range stages {
		if s.end > stages[cur].end {
			cur = i
		}
		begin = min(begin, s.start)
	}
	// onPath keeps zero-length stages that end where each other start
	// from walking in a circle.
	onPath := make([]bool, len(stages))
	for {
		path = append(path, cur)
		onPath[cur] = true
		busy += stages[cur].end - stages[cur].start
		pred := -1
		for i, s := range stages {
			if !onPath[i] && s.end <= stages[cur].start && (pred < 0 || s.end > stages[pred].end) {
				pred = i
			}
		}
		if pred < 0 {
			wait += stages[cur].start - begin
			return path, busy, wait
		}
		wait += stages[cur].start - stages[pred].end
		cur = pred
	}
}
