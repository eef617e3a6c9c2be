package trace

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/table"
)

// JobColumns is the struct-of-arrays form of []Job: one column per
// field, with the low-cardinality strings (user, account, partition,
// state, language) dictionary-encoded and the monotone columns (ID,
// Submit) delta-encoded on the wire. 10k rows carry five small
// dictionaries instead of 50k string headers.
type JobColumns struct {
	ids       []uint64
	users     []uint32
	accounts  []uint32
	parts     []uint32
	years     []int32
	submits   []int64
	nodes     []int32
	coresPer  []int32
	gpus      []int32
	limits    []int64
	elapseds  []int64
	states    []uint32
	languages []uint32

	userDict  Dict
	acctDict  Dict
	partDict  Dict
	stateDict Dict
	langDict  Dict
}

// Dict aliases table.Dict so trace callers don't import table for it.
type Dict = table.Dict

// Append implements table.Columns.
func (c *JobColumns) Append(j Job) {
	c.ids = append(c.ids, j.ID)
	c.users = append(c.users, c.userDict.Code(j.User))
	c.accounts = append(c.accounts, c.acctDict.Code(j.Account))
	c.parts = append(c.parts, c.partDict.Code(j.Partition))
	c.years = append(c.years, int32(j.Year))
	c.submits = append(c.submits, j.Submit)
	c.nodes = append(c.nodes, int32(j.Nodes))
	c.coresPer = append(c.coresPer, int32(j.CoresPer))
	c.gpus = append(c.gpus, int32(j.GPUs))
	c.limits = append(c.limits, j.Limit)
	c.elapseds = append(c.elapseds, j.Elapsed)
	c.states = append(c.states, c.stateDict.Code(string(j.State)))
	c.languages = append(c.languages, c.langDict.Code(j.Language))
}

// Len implements table.Columns.
func (c *JobColumns) Len() int { return len(c.ids) }

// Row implements table.Columns.
func (c *JobColumns) Row(i int) Job {
	return Job{
		ID:        c.ids[i],
		User:      c.userDict.Value(c.users[i]),
		Account:   c.acctDict.Value(c.accounts[i]),
		Partition: c.partDict.Value(c.parts[i]),
		Year:      int(c.years[i]),
		Submit:    c.submits[i],
		Nodes:     int(c.nodes[i]),
		CoresPer:  int(c.coresPer[i]),
		GPUs:      int(c.gpus[i]),
		Limit:     c.limits[i],
		Elapsed:   c.elapseds[i],
		State:     JobState(c.stateDict.Value(c.states[i])),
		Language:  c.langDict.Value(c.languages[i]),
	}
}

// reset empties the columns for DecodeFrom.
func (c *JobColumns) reset() {
	c.ids = c.ids[:0]
	c.users, c.accounts, c.parts = c.users[:0], c.accounts[:0], c.parts[:0]
	c.years, c.submits = c.years[:0], c.submits[:0]
	c.nodes, c.coresPer, c.gpus = c.nodes[:0], c.coresPer[:0], c.gpus[:0]
	c.limits, c.elapseds = c.limits[:0], c.elapseds[:0]
	c.states, c.languages = c.states[:0], c.languages[:0]
	c.userDict.Reset()
	c.acctDict.Reset()
	c.partDict.Reset()
	c.stateDict.Reset()
	c.langDict.Reset()
}

// EncodeTo implements table.Columns. IDs and submit times are stored as
// deltas (both are non-decreasing within a generated trace; the signed
// encoding also covers out-of-order inputs).
func (c *JobColumns) EncodeTo(w *table.Writer) error {
	for _, d := range []*Dict{&c.userDict, &c.acctDict, &c.partDict, &c.stateDict, &c.langDict} {
		d.EncodeTo(w)
	}
	w.Uvarint(uint64(len(c.ids)))
	prevID, prevSub := int64(0), int64(0)
	for i := range c.ids {
		w.Varint(int64(c.ids[i]) - prevID)
		prevID = int64(c.ids[i])
		w.Varint(c.submits[i] - prevSub)
		prevSub = c.submits[i]
		w.Uvarint(uint64(c.users[i]))
		w.Uvarint(uint64(c.accounts[i]))
		w.Uvarint(uint64(c.parts[i]))
		w.Varint(int64(c.years[i]))
		w.Uvarint(uint64(c.nodes[i]))
		w.Uvarint(uint64(c.coresPer[i]))
		w.Uvarint(uint64(c.gpus[i]))
		w.Varint(c.limits[i])
		w.Varint(c.elapseds[i])
		w.Uvarint(uint64(c.states[i]))
		w.Uvarint(uint64(c.languages[i]))
	}
	return w.Err()
}

// jobRowMinBytes is the least a job row takes on the wire: thirteen
// varints of at least one byte each.
const jobRowMinBytes = 13

// DecodeFrom implements table.Columns. Every column is sized once from
// the row count, which the unread bytes bound.
func (c *JobColumns) DecodeFrom(r *table.Reader) error {
	c.reset()
	dicts := []*Dict{&c.userDict, &c.acctDict, &c.partDict, &c.stateDict, &c.langDict}
	for _, d := range dicts {
		d.DecodeFrom(r)
	}
	n := r.Count("job rows", jobRowMinBytes)
	c.ids, c.submits = table.Resize(c.ids, n), table.Resize(c.submits, n)
	c.users, c.accounts, c.parts = table.Resize(c.users, n), table.Resize(c.accounts, n), table.Resize(c.parts, n)
	c.years, c.nodes, c.coresPer, c.gpus = table.Resize(c.years, n), table.Resize(c.nodes, n), table.Resize(c.coresPer, n), table.Resize(c.gpus, n)
	c.limits, c.elapseds = table.Resize(c.limits, n), table.Resize(c.elapseds, n)
	c.states, c.languages = table.Resize(c.states, n), table.Resize(c.languages, n)
	prevID, prevSub := int64(0), int64(0)
	for i := 0; i < n; i++ {
		prevID += r.Varint()
		c.ids[i] = uint64(prevID)
		prevSub += r.Varint()
		c.submits[i] = prevSub
		c.users[i] = uint32(r.Uvarint())
		c.accounts[i] = uint32(r.Uvarint())
		c.parts[i] = uint32(r.Uvarint())
		c.years[i] = int32(r.Varint())
		c.nodes[i] = int32(r.Uvarint())
		c.coresPer[i] = int32(r.Uvarint())
		c.gpus[i] = int32(r.Uvarint())
		c.limits[i] = r.Varint()
		c.elapseds[i] = r.Varint()
		c.states[i] = uint32(r.Uvarint())
		c.languages[i] = uint32(r.Uvarint())
	}
	if err := r.Err(); err != nil {
		return err
	}
	// A code outside its dictionary would panic Row: refuse it here.
	for i, codes := range [][]uint32{c.users, c.accounts, c.parts, c.states, c.languages} {
		if err := dicts[i].Check(codes); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	return nil
}

// MemBytes implements table.Columns.
func (c *JobColumns) MemBytes() int {
	n := len(c.ids)
	fixed := n * (8 + 4*7 + 8*3) // per-row column bytes
	dicts := c.userDict.MemBytes() + c.acctDict.MemBytes() + c.partDict.MemBytes() +
		c.stateDict.MemBytes() + c.langDict.MemBytes()
	return fixed + dicts
}

// JobCodec binds Job to its columnar form.
type JobCodec struct{}

// NewColumns implements table.Codec.
func (JobCodec) NewColumns(n int) table.Columns[Job] {
	return &JobColumns{
		ids: make([]uint64, 0, n), users: make([]uint32, 0, n), accounts: make([]uint32, 0, n),
		parts: make([]uint32, 0, n), years: make([]int32, 0, n), submits: make([]int64, 0, n),
		nodes: make([]int32, 0, n), coresPer: make([]int32, 0, n), gpus: make([]int32, 0, n),
		limits: make([]int64, 0, n), elapseds: make([]int64, 0, n),
		states: make([]uint32, 0, n), languages: make([]uint32, 0, n),
	}
}

// DecodeLen implements table.HoldCodec: it skips the five dictionaries
// DecodeFrom reads first and returns the row count that follows them.
func (JobCodec) DecodeLen(r *table.Reader) int {
	for range 5 {
		table.SkipDict(r)
	}
	return r.Count("job rows", jobRowMinBytes)
}

// JobTable is the streaming form of a job trace.
type JobTable = table.Table[Job]

// WriteAccountingTable streams a job table in the accounting format,
// byte-identical to WriteAccounting over the same rows — one row in
// flight, never a materialized []Job.
func WriteAccountingTable(w io.Writer, t JobTable) error {
	aw, err := newAccountingWriter(w)
	if err != nil {
		return err
	}
	var werr error
	err = table.Each(t, func(j Job) bool {
		werr = aw.writeJob(j)
		return werr == nil
	})
	if werr != nil {
		return werr
	}
	if err != nil {
		return err
	}
	return aw.flush()
}

// SummarizeTable is the streaming equivalent of SummarizeByYear: one
// sequential scan, per-year accumulators updated in row order so the
// float sums are bit-identical to the slice version (which also folds
// in per-year encounter order). Cores are still collected per year for
// the quantiles — collect-then-sort is order-free — at 8 bytes/job
// instead of the ~130 bytes/job a materialized []Job costs.
func SummarizeTable(t JobTable) ([]YearSummary, error) {
	type acc struct {
		s       YearSummary
		cores   []float64
		gpuJobs int
		failed  int
	}
	byYear := map[int]*acc{}
	err := table.Each(t, func(j Job) bool {
		a := byYear[j.Year]
		if a == nil {
			a = &acc{s: YearSummary{Year: j.Year}}
			byYear[j.Year] = a
		}
		a.s.Jobs++
		a.s.CPUHours += j.CPUHours()
		a.s.GPUHours += j.GPUHours()
		a.cores = append(a.cores, float64(j.Cores()))
		if j.GPUs > 0 {
			a.gpuJobs++
		}
		if j.State == StateFailed || j.State == StateTimeout {
			a.failed++
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	years := make([]int, 0, len(byYear))
	for y := range byYear {
		years = append(years, y)
	}
	sort.Ints(years)
	out := make([]YearSummary, 0, len(years))
	for _, y := range years {
		a := byYear[y]
		sort.Float64s(a.cores)
		a.s.MedianCores = quantileSorted(a.cores, 0.5)
		a.s.P99Cores = quantileSorted(a.cores, 0.99)
		sum := 0.0
		for _, c := range a.cores {
			sum += c
		}
		a.s.MeanCores = sum / float64(len(a.cores))
		a.s.GPUJobShare = float64(a.gpuJobs) / float64(a.s.Jobs)
		a.s.FailedShare = float64(a.failed) / float64(a.s.Jobs)
		out = append(out, a.s)
	}
	return out, nil
}

// UserUsageTable is the streaming equivalent of UserUsage: per-user
// float sums accumulated in row order (order-sensitive — single scan).
func UserUsageTable(t JobTable) (map[string]float64, error) {
	out := map[string]float64{}
	err := table.Each(t, func(j Job) bool {
		out[j.User] += j.CPUHours() + j.GPUHours()
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
