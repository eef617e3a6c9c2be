package core

// Stage-output payload codecs for the Merkle stage cache (see
// stagecache.go). Each cacheable stage kind serializes its output into
// a small versioned payload: table-valued stages reuse the checksummed
// "rcpt-col/1" stream envelope internal/table already defines, and
// value-shaped outputs (quality reports, raking results, panel members,
// telemetry aggregates, simulation results) get hand-rolled encodings
// over the same Writer/Reader primitives the column codecs use.
//
// The payload's leading magic names its kind and version. The cache key
// already commits to a version tag, so a magic mismatch should be
// unreachable; it exists as defense in depth — a payload that decodes
// under the wrong kind would corrupt artifacts, and the contract here
// is that a bad payload may only ever cost a recompute. Decoders
// therefore validate structure (lengths, counts, reader state) and
// return errors; they never trust a field they can check.

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/modlog"
	"repro/internal/population"
	"repro/internal/sched"
	"repro/internal/survey"
	"repro/internal/table"
	"repro/internal/trace"
	"repro/internal/weighting"
)

// Payload kind magics, one per stage-output shape.
const (
	payloadCohort = "rcpt-stage-cohort/1"
	payloadRake   = "rcpt-stage-rake/1"
	payloadPanel  = "rcpt-stage-panel/1"
	payloadJobs   = "rcpt-stage-jobs/1"
	payloadEvents = "rcpt-stage-events/1"
	payloadModAgg = "rcpt-stage-modagg/1"
	payloadSim    = "rcpt-stage-sim/2"
	payloadSweep  = "rcpt-stage-sweep/1"
)

// openPayload checks the payload's kind marker and returns a reader
// positioned after it. The reader decodes in place; every decoder
// copies what it keeps, because a stage cache may hand the same payload
// to several readers.
func openPayload(payload []byte, want string) (*table.Reader, error) {
	r := table.NewReader(payload)
	got := r.String()
	if err := r.Err(); err != nil {
		return r, fmt.Errorf("core: stage payload magic: %w", err)
	}
	if got != want {
		return r, fmt.Errorf("core: stage payload kind %q, want %q", got, want)
	}
	return r, nil
}

// decodeTableBlock reverses table.AppendBlock into a resident table,
// verifying the block where it lies in the payload.
func decodeTableBlock[T any](r *table.Reader, codec table.Codec[T]) (table.Table[T], error) {
	block, err := tableBlock(r)
	if err != nil {
		return nil, err
	}
	return table.DecodeStream[T](block, codec)
}

// tableBlock reads one block table.AppendBlock framed, in place.
func tableBlock(r *table.Reader) ([]byte, error) {
	block := r.Raw(r.Count("table block bytes", 1))
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: stage payload table block: %w", err)
	}
	return block, nil
}

// payloadScratch holds the writers payloads are framed in, so a
// payload's kind magic, fields and table blocks are written once, into
// a buffer already grown by earlier payloads.
var payloadScratch = sync.Pool{New: func() any { return table.NewWriter(nil) }}

// encodePayload frames one payload: its kind magic, then what body
// writes. It returns an exact-size copy of the framed bytes: a stage
// cache keeps the slice it is handed, and spare capacity kept with it
// would be memory the cache's byte bound does not count.
func encodePayload(magic string, body func(w *table.Writer) error) ([]byte, error) {
	w := payloadScratch.Get().(*table.Writer)
	defer payloadScratch.Put(w)
	w.Reset()
	w.String(magic)
	if err := body(w); err != nil {
		return nil, err
	}
	if err := w.Err(); err != nil {
		return nil, err
	}
	payload := make([]byte, len(w.Bytes()))
	copy(payload, w.Bytes())
	return payload, nil
}

// --- table payloads (trace replicas, telemetry) ---

// tableCodec is the payload codec of a table-valued stage output. A
// hit holds its block as a table.Held: envelope and row count checked
// now, columns decoded on first read.
func tableCodec[T any](magic string, c table.HoldCodec[T]) codec[table.Table[T]] {
	return codec[table.Table[T]]{
		encode: func(tab table.Table[T]) ([]byte, error) {
			return encodePayload(magic, func(w *table.Writer) error { return table.AppendBlock[T](w, c, tab) })
		},
		decode: func(payload []byte) (table.Table[T], error) {
			r, err := openPayload(payload, magic)
			if err != nil {
				return nil, err
			}
			return decodeTableBlock(r, c)
		},
		hold: func(payload []byte, redo func() (table.Table[T], error)) (table.Table[T], error) {
			r, err := openPayload(payload, magic)
			if err != nil {
				return nil, err
			}
			block, err := tableBlock(r)
			if err != nil {
				return nil, err
			}
			held, err := table.Hold(block, c, redo)
			if err != nil {
				return nil, err
			}
			return held, nil
		},
	}
}

// --- responses, as embedded in the cohort and panel payloads ---

// writeResponses frames responses as one table block plus a sidecar
// naming the (row, question) answers that carry an empty-but-allocated
// Choices slice. The columnar response form stores only answer counts,
// so []string{} (a multi-choice question answered with zero selections)
// collapses into nil on decode — but a restored stage must reproduce
// exactly the values the computed stage held, down to
// reflect.DeepEqual. Rows are emitted in order with questions sorted,
// keeping the payload canonical. The block frames the columns FromSlice
// builds, sized for the responses.
func writeResponses(w *table.Writer, rs []*survey.Response) error {
	vals := make([]survey.Response, len(rs))
	for i, r := range rs {
		vals[i] = *r
	}
	tab := table.FromSlice(survey.ResponseCodec{}, vals)
	if err := table.AppendBlock[survey.Response](w, survey.ResponseCodec{}, tab); err != nil {
		return err
	}
	type ref struct {
		row int
		qid string
	}
	var refs []ref
	for i := range vals {
		var qids []string
		for qid, a := range vals[i].Answers {
			if a.Choices != nil && len(a.Choices) == 0 {
				qids = append(qids, qid)
			}
		}
		sort.Strings(qids)
		for _, qid := range qids {
			refs = append(refs, ref{i, qid})
		}
	}
	w.Uvarint(uint64(len(refs)))
	for _, e := range refs {
		w.Uvarint(uint64(e.row))
		w.String(e.qid)
	}
	return nil
}

// readResponses reverses writeResponses.
func readResponses(r *table.Reader) ([]*survey.Response, error) {
	tab, err := decodeTableBlock(r, survey.ResponseCodec{})
	if err != nil {
		return nil, err
	}
	rs, err := survey.MaterializeResponses(tab)
	if err != nil {
		return nil, err
	}
	n := r.Count("empty-choice entries", 1)
	for i := 0; i < n; i++ {
		row := int(r.Uvarint())
		qid := r.String()
		if r.Err() != nil {
			break
		}
		if row < 0 || row >= len(rs) {
			return nil, fmt.Errorf("core: empty-choice sidecar row %d out of range", row)
		}
		a, ok := rs[row].Answers[qid]
		if !ok {
			return nil, fmt.Errorf("core: empty-choice sidecar names unanswered question %q", qid)
		}
		a.Choices = []string{}
		rs[row].Answers[qid] = a
	}
	return rs, r.Err()
}

// --- cohort: final screened responses + the quality report ---

// cohortOutput is a cohort stage's output: the screened responses and
// the quality report of their screening.
type cohortOutput struct {
	responses []*survey.Response
	quality   survey.QualityReport
}

func encodeCohortPayload(c cohortOutput) ([]byte, error) {
	return encodePayload(payloadCohort, func(w *table.Writer) error {
		if err := writeResponses(w, c.responses); err != nil {
			return err
		}
		qr := c.quality
		w.Uvarint(uint64(len(qr.Flags)))
		for _, f := range qr.Flags {
			w.String(f.ResponseID)
			w.String(f.Rule)
			w.Varint(int64(f.Severity))
			w.String(f.Detail)
		}
		hard := make([]string, 0, len(qr.HardIDs))
		for id := range qr.HardIDs {
			hard = append(hard, id)
		}
		sort.Strings(hard)
		w.Uvarint(uint64(len(hard)))
		for _, id := range hard {
			w.String(id)
		}
		w.Uvarint(uint64(qr.Responses))
		return nil
	})
}

func decodeCohortPayload(payload []byte) (cohortOutput, error) {
	var qr survey.QualityReport
	r, err := openPayload(payload, payloadCohort)
	if err != nil {
		return cohortOutput{}, err
	}
	rs, err := readResponses(r)
	if err != nil {
		return cohortOutput{}, err
	}
	nf := r.Count("flags", 1)
	if nf > 0 {
		qr.Flags = make([]survey.Flag, nf)
		for i := range qr.Flags {
			qr.Flags[i] = survey.Flag{
				ResponseID: r.String(),
				Rule:       r.String(),
				Severity:   survey.Severity(r.Varint()),
				Detail:     r.String(),
			}
		}
	}
	nh := r.Count("hard IDs", 1)
	qr.HardIDs = make(map[string]bool, nh)
	for i := 0; i < nh; i++ {
		qr.HardIDs[r.String()] = true
	}
	qr.Responses = int(r.Uvarint())
	if err := r.Err(); err != nil {
		return cohortOutput{}, fmt.Errorf("core: cohort payload: %w", err)
	}
	return cohortOutput{responses: rs, quality: qr}, nil
}

// --- rake: the raking diagnostics + the per-response weights it set ---

// rakeOutput is a rake stage's output: the raking diagnostics plus the
// weight the stage assigned to each response, by cohort index.
// Restoring weights positionally is sound because the cohort the
// weights apply to is itself pinned by the rake stage's upstream key:
// same key, same responses in the same order.
type rakeOutput struct {
	result  weighting.Result
	weights []float64
}

func encodeRakePayload(o rakeOutput) ([]byte, error) {
	return encodePayload(payloadRake, func(w *table.Writer) error {
		res := o.result
		w.Varint(int64(res.Iterations))
		converged := uint64(0)
		if res.Converged {
			converged = 1
		}
		w.Uvarint(converged)
		w.Float64(res.MaxDeviation)
		w.Float64(res.EffectiveN)
		w.Float64(res.DesignEffect)
		w.Float64(res.MinWeight)
		w.Float64(res.MaxWeight)
		w.Uvarint(uint64(len(res.DeviationTrace)))
		for _, d := range res.DeviationTrace {
			w.Float64(d)
		}
		w.Uvarint(uint64(len(o.weights)))
		for _, wt := range o.weights {
			w.Float64(wt)
		}
		return nil
	})
}

func decodeRakePayload(payload []byte) (rakeOutput, error) {
	var res weighting.Result
	r, err := openPayload(payload, payloadRake)
	if err != nil {
		return rakeOutput{}, err
	}
	res.Iterations = int(r.Varint())
	res.Converged = r.Uvarint() == 1
	res.MaxDeviation = r.Float64()
	res.EffectiveN = r.Float64()
	res.DesignEffect = r.Float64()
	res.MinWeight = r.Float64()
	res.MaxWeight = r.Float64()
	nt := r.Count("deviation trace entries", 8)
	if nt > 0 {
		res.DeviationTrace = make([]float64, nt)
		for i := range res.DeviationTrace {
			res.DeviationTrace[i] = r.Float64()
		}
	}
	nw := r.Count("weights", 8)
	weights := make([]float64, nw)
	for i := range weights {
		weights[i] = r.Float64()
	}
	if err := r.Err(); err != nil {
		return rakeOutput{}, fmt.Errorf("core: rake payload: %w", err)
	}
	return rakeOutput{result: res, weights: weights}, nil
}

// --- panel: longitudinal members as IDs + two wave tables ---

func encodePanelPayload(members []population.PanelMember) ([]byte, error) {
	return encodePayload(payloadPanel, func(w *table.Writer) error {
		w.Uvarint(uint64(len(members)))
		waves := [2][]*survey.Response{make([]*survey.Response, len(members)), make([]*survey.Response, len(members))}
		for i, m := range members {
			if m.Wave1 == nil || m.Wave2 == nil {
				return fmt.Errorf("core: panel member %d missing a wave", i)
			}
			w.String(m.PersonID)
			waves[0][i], waves[1][i] = m.Wave1, m.Wave2
		}
		for _, wave := range waves {
			if err := writeResponses(w, wave); err != nil {
				return err
			}
		}
		return nil
	})
}

func decodePanelPayload(payload []byte) ([]population.PanelMember, error) {
	r, err := openPayload(payload, payloadPanel)
	if err != nil {
		return nil, err
	}
	n := r.Count("panel members", 1)
	ids := make([]string, n)
	for i := range ids {
		ids[i] = r.String()
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: panel payload: %w", err)
	}
	var waves [2][]*survey.Response
	for wi := range waves {
		if waves[wi], err = readResponses(r); err != nil {
			return nil, err
		}
		if len(waves[wi]) != n {
			return nil, fmt.Errorf("core: panel payload wave %d has %d responses, want %d", wi+1, len(waves[wi]), n)
		}
	}
	members := make([]population.PanelMember, n)
	for i := range members {
		members[i] = population.PanelMember{PersonID: ids[i], Wave1: waves[0][i], Wave2: waves[1][i]}
	}
	return members, nil
}

// --- modlog-merge: per-year telemetry shares ---

func encodeModAggPayload(agg []modlog.YearShares) ([]byte, error) {
	return encodePayload(payloadModAgg, func(w *table.Writer) error {
		w.Uvarint(uint64(len(agg)))
		for _, ys := range agg {
			w.Varint(int64(ys.Year))
			w.Varint(int64(ys.Users))
			keys := make([]string, 0, len(ys.Shares))
			for k := range ys.Shares {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			w.Uvarint(uint64(len(keys)))
			for _, k := range keys {
				w.String(k)
				w.Float64(ys.Shares[k])
			}
		}
		return nil
	})
}

func decodeModAggPayload(payload []byte) ([]modlog.YearShares, error) {
	r, err := openPayload(payload, payloadModAgg)
	if err != nil {
		return nil, err
	}
	n := r.Count("year shares", 1)
	agg := make([]modlog.YearShares, n)
	for i := range agg {
		agg[i].Year = int(r.Varint())
		agg[i].Users = int(r.Varint())
		nk := r.Count("module shares", 1)
		agg[i].Shares = make(map[string]float64, nk)
		for j := 0; j < nk; j++ {
			k := r.String()
			agg[i].Shares[k] = r.Float64()
		}
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("core: modagg payload: %w", err)
	}
	return agg, nil
}

// --- simulations: job results as rows of their feed, samples, metrics ---

// simOutput is a sim stage's output. A computed one is the Result as
// simulated; a held one carries only the metrics until its first read
// (hold.go). A decoded one carries, for each job result, its start and
// wait, and in rows the row of its job in the sim-year feed, which join
// fills in against the feed.
type simOutput struct {
	res  *sched.Result
	rows []int32
}

// simResultMinBytes is the least a job result takes on the wire: its
// row, start and wait, one varint each.
const simResultMinBytes = 3

// feedRows returns, for each job result of a computed simulation, the
// row of its job in the feed the simulation read. SimulateTable refuses
// a feed out of strict (Submit, ID) order, and every fed job gets a
// result, so a job's row is its rank in that order among the results.
func feedRows(res *sched.Result) []int32 {
	byFeed := make([]int32, len(res.Results))
	for i := range byFeed {
		byFeed[i] = int32(i)
	}
	slices.SortFunc(byFeed, func(a, b int32) int {
		ja, jb := &res.Results[a].Job, &res.Results[b].Job
		return cmp.Or(cmp.Compare(ja.Submit, jb.Submit), cmp.Compare(ja.ID, jb.ID))
	})
	rows := make([]int32, len(byFeed))
	for row, i := range byFeed {
		rows[i] = int32(row)
	}
	return rows
}

// join fills in the jobs of a decoded output from feed, the sim-year
// replica tables in the order SimulateTable reads them. It refuses a
// result count other than the feed's length, a row out of range, a row
// used twice and a wait other than start − submit, so a payload that
// does not fit the restored feed fails the held result's first read and
// the stage recomputes.
func (o simOutput) join(feed trace.JobTable) error {
	n := feed.Len(table.Exact)
	if len(o.rows) != n {
		return fmt.Errorf("core: sim payload has %d job results for a %d-job feed", len(o.rows), n)
	}
	result := make([]int32, n) // feed row → 1 + index of its result; 0: none yet
	for i, row := range o.rows {
		if int(row) >= n {
			return fmt.Errorf("core: sim payload row %d outside the %d-job feed", row, n)
		}
		if result[row] != 0 {
			return fmt.Errorf("core: sim payload uses feed row %d twice", row)
		}
		result[row] = int32(i) + 1
	}
	row := 0
	var bad error
	err := table.Each(feed, func(j trace.Job) bool {
		jr := &o.res.Results[result[row]-1]
		if jr.Wait != jr.Start-j.Submit {
			bad = fmt.Errorf("core: sim payload job %d waits %d, starting at %d after submit %d", j.ID, jr.Wait, jr.Start, j.Submit)
			return false
		}
		jr.Job = j
		row++
		return true
	})
	if bad != nil {
		return bad
	}
	return err
}

func encodeSimPayload(o simOutput) ([]byte, error) {
	res := o.res
	if res == nil {
		return nil, fmt.Errorf("core: nil simulation result")
	}
	rows := o.rows
	if rows == nil {
		rows = feedRows(res)
	}
	if len(rows) != len(res.Results) {
		return nil, fmt.Errorf("core: %d feed rows for %d job results", len(rows), len(res.Results))
	}
	return encodePayload(payloadSim, func(w *table.Writer) error {
		w.Uvarint(uint64(len(res.Results)))
		for i, jr := range res.Results {
			w.Uvarint(uint64(rows[i]))
			w.Varint(jr.Start)
			w.Varint(jr.Wait)
		}
		w.Uvarint(uint64(len(res.Samples)))
		for _, s := range res.Samples {
			w.Varint(s.Time)
			w.Float64(s.CPUUtil)
			w.Float64(s.GPUUtil)
			w.Varint(int64(s.Queued))
		}
		m := res.Metrics
		w.Varint(int64(m.Policy))
		w.Varint(int64(m.Jobs))
		w.Varint(m.Makespan)
		w.Float64(m.MeanWait)
		w.Float64(m.MedianWait)
		w.Float64(m.P95Wait)
		w.Varint(m.MaxWait)
		w.Float64(m.AvgCPUUtil)
		w.Float64(m.AvgGPUUtil)
		w.Varint(int64(m.BackfillStarts))
		w.Float64(m.BoundedSlowdown)
		w.Float64(m.CPUMeanWait)
		w.Float64(m.GPUMeanWait)
		w.Float64(m.UserFairness)
		return nil
	})
}

// decodeSimPayload decodes a sim payload standalone: the jobs stay
// zero until join fills them in from the feed.
func decodeSimPayload(payload []byte) (simOutput, error) { return readSimPayload(payload, true) }

// readSimPayload walks a sim payload with every check its decode
// makes; full keeps the job results, their rows and the samples besides
// the metrics, which a hold alone keeps.
func readSimPayload(payload []byte, full bool) (simOutput, error) {
	r, err := openPayload(payload, payloadSim)
	if err != nil {
		return simOutput{}, err
	}
	n := r.Count("job results", simResultMinBytes)
	res := &sched.Result{}
	var rows []int32
	if full {
		res.Results, rows = make([]sched.JobResult, n), make([]int32, n)
	}
	for i := 0; i < n; i++ {
		row := r.Uvarint()
		if row > math.MaxInt32 {
			r.Fail(fmt.Errorf("core: sim payload row %d out of range", row))
		}
		start, wait := r.Varint(), r.Varint()
		if full {
			rows[i] = int32(row)
			res.Results[i].Start, res.Results[i].Wait = start, wait
		}
	}
	ns := r.Count("utilization samples", 18)
	if full {
		res.Samples = make([]sched.UtilSample, ns)
	}
	for i := 0; i < ns; i++ {
		s := sched.UtilSample{
			Time:    r.Varint(),
			CPUUtil: r.Float64(),
			GPUUtil: r.Float64(),
			Queued:  int(r.Varint()),
		}
		if full {
			res.Samples[i] = s
		}
	}
	res.Metrics = sched.Metrics{
		Policy:          sched.Policy(r.Varint()),
		Jobs:            int(r.Varint()),
		Makespan:        r.Varint(),
		MeanWait:        r.Float64(),
		MedianWait:      r.Float64(),
		P95Wait:         r.Float64(),
		MaxWait:         r.Varint(),
		AvgCPUUtil:      r.Float64(),
		AvgGPUUtil:      r.Float64(),
		BackfillStarts:  int(r.Varint()),
		BoundedSlowdown: r.Float64(),
		CPUMeanWait:     r.Float64(),
		GPUMeanWait:     r.Float64(),
		UserFairness:    r.Float64(),
	}
	if err := r.Err(); err != nil {
		return simOutput{}, fmt.Errorf("core: sim payload: %w", err)
	}
	return simOutput{res: res, rows: rows}, nil
}

// --- T16 sweep halves: every replicate's shares ---

func encodeSweepPayload(vals []float64) ([]byte, error) {
	return encodePayload(payloadSweep, func(w *table.Writer) error {
		w.Uvarint(uint64(len(vals)))
		for _, v := range vals {
			w.Float64(v)
		}
		return nil
	})
}

// sweepDecoder decodes the payload of a half that holds want shares,
// refusing any other count.
func sweepDecoder(want int) func([]byte) ([]float64, error) {
	return func(payload []byte) ([]float64, error) {
		r, err := openPayload(payload, payloadSweep)
		if err != nil {
			return nil, err
		}
		n := r.Count("sweep shares", 8)
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("core: sweep payload: %w", err)
		}
		if n != want {
			return nil, fmt.Errorf("core: sweep payload has %d shares, want %d", n, want)
		}
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.Float64()
		}
		return vals, r.Err()
	}
}
