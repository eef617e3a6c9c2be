package trace

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/rng"
)

// JobClass describes one mode of the workload mixture.
type JobClass struct {
	Name       string
	Weight     float64 // mixture weight (relative)
	Partition  string
	NodesMin   int
	NodesMax   int // inclusive; widths drawn Zipf-ish within the range
	CoresPer   int
	GPUsPer    int     // GPUs per node
	RuntimeMu  float64 // lognormal location of runtime seconds
	RuntimeSig float64
	LimitSlack float64 // requested limit = elapsed * (1 + slack * U)
	// ArrayMax, when > 1, makes this class emit job arrays: one draw
	// becomes 1..ArrayMax near-identical tasks submitted together (the
	// parameter-sweep pattern that dominates research workloads).
	ArrayMax int
}

// WorkloadModel parameterizes one year of synthetic accounting data.
type WorkloadModel struct {
	Year       int
	Users      int     // distinct users, Zipf activity
	JobsPerDay float64 // Poisson arrival intensity
	Days       int
	Classes    []JobClass
	// FieldShare distributes accounts across research fields.
	FieldShare map[string]float64
	// LangShare distributes the dominant toolchain per job (for the
	// telemetry concordance table).
	LangShare map[string]float64
	// FailRate and TimeoutRate are terminal-state probabilities.
	FailRate    float64
	TimeoutRate float64
}

// Validate checks the model.
func (m *WorkloadModel) Validate() error {
	if m.Year <= 0 {
		return fmt.Errorf("trace: workload year %d", m.Year)
	}
	if m.Users <= 0 || m.JobsPerDay <= 0 || m.Days <= 0 {
		return fmt.Errorf("trace: workload needs users, jobs/day and days > 0")
	}
	if len(m.Classes) == 0 {
		return fmt.Errorf("trace: workload has no job classes")
	}
	for _, c := range m.Classes {
		if c.Weight < 0 || c.NodesMin <= 0 || c.NodesMax < c.NodesMin || c.CoresPer <= 0 || c.GPUsPer < 0 {
			return fmt.Errorf("trace: job class %q invalid", c.Name)
		}
	}
	if len(m.FieldShare) == 0 || len(m.LangShare) == 0 {
		return fmt.Errorf("trace: workload needs field and language shares")
	}
	if m.FailRate < 0 || m.TimeoutRate < 0 || m.FailRate+m.TimeoutRate > 1 {
		return fmt.Errorf("trace: invalid failure rates %g/%g", m.FailRate, m.TimeoutRate)
	}
	return nil
}

// Generate produces one year's jobs, sorted by submit time, with IDs
// starting at firstID. Deterministic in r.
func (m *WorkloadModel) Generate(r *rng.RNG, firstID uint64) ([]Job, error) {
	var jobs []Job
	if err := m.GenerateStream(r, firstID, func(j Job) error {
		jobs = append(jobs, j)
		return nil
	}); err != nil {
		return nil, err
	}
	return jobs, nil
}

// GenerateStream produces exactly the jobs Generate would, in the same
// (Submit, ID) order, but emits them incrementally while holding only a
// rolling ~2-day pending buffer instead of the whole year. This is what
// bounds generation memory on 100×–1000× runs.
//
// Correctness of the incremental flush: every job generated on or after
// day d has Submit >= d*86400 (the diurnal draw stays within the day
// and array siblings only push submit forward), so once day d begins,
// pending jobs with Submit < d*86400 are final and can be emitted in
// (Submit, ID) order — the same total order the batch path sorts by.
// RNG consumption is the draw order of the day loop, identical in both
// paths, so the two are byte-equivalent (pinned by tests).
func (m *WorkloadModel) GenerateStream(r *rng.RNG, firstID uint64, emit func(Job) error) error {
	if err := m.Validate(); err != nil {
		return err
	}
	weights := make([]float64, len(m.Classes))
	for i, c := range m.Classes {
		weights[i] = c.Weight
	}
	classAlias, err := rng.NewAlias(weights)
	if err != nil {
		return fmt.Errorf("trace: class mixture: %w", err)
	}
	fieldCat, err := rng.NewCategorical(m.FieldShare)
	if err != nil {
		return fmt.Errorf("trace: field share: %w", err)
	}
	langCat, err := rng.NewCategorical(m.LangShare)
	if err != nil {
		return fmt.Errorf("trace: language share: %w", err)
	}
	userZipf := rng.NewZipf(m.Users, 1.2) // few users dominate, as in real logs
	// Jobs name their user by Zipf rank: format each name once.
	users := make([]string, m.Users)
	for i := range users {
		users[i] = fmt.Sprintf("u%04d", i)
	}
	// Heavy-tailed width within each class's node range: most jobs near
	// the minimum, occasional wide ones. One table per class, built up
	// front; NewZipf draws nothing, so the stream is unchanged.
	widthZipf := make([]*rng.Zipf, len(m.Classes))
	for i, c := range m.Classes {
		if c.NodesMax > c.NodesMin {
			widthZipf[i] = rng.NewZipf(c.NodesMax-c.NodesMin+1, 1.5)
		}
	}

	// flushBefore emits pending jobs with Submit < cutoff in (Submit,
	// ID) order and keeps the rest buffered. It sorts small pointer-free
	// keys rather than the jobs: moving whole jobs, which hold five
	// strings, pays a write barrier per move whenever the collector
	// runs. (Submit, ID) is unique, so the order is strict.
	type jobKey struct {
		submit int64
		id     uint64
		i      int
	}
	var pending, kept []Job
	var keys []jobKey
	flushBefore := func(cutoff int64) error {
		keys = keys[:0]
		for i := range pending {
			keys = append(keys, jobKey{submit: pending[i].Submit, id: pending[i].ID, i: i})
		}
		slices.SortFunc(keys, func(a, b jobKey) int {
			if a.submit != b.submit {
				return cmp.Compare(a.submit, b.submit)
			}
			return cmp.Compare(a.id, b.id)
		})
		n := sort.Search(len(keys), func(i int) bool { return keys[i].submit >= cutoff })
		for _, k := range keys[:n] {
			if err := emit(pending[k.i]); err != nil {
				return err
			}
		}
		kept = kept[:0]
		for _, k := range keys[n:] {
			kept = append(kept, pending[k.i])
		}
		pending, kept = kept, pending
		return nil
	}
	id := firstID
	const day = 86400
	for d := 0; d < m.Days; d++ {
		if err := flushBefore(int64(d * day)); err != nil {
			return err
		}
		n := r.Poisson(m.JobsPerDay * dayFactor(d))
		for k := 0; k < n; k++ {
			ci := classAlias.Draw(r)
			c := m.Classes[ci]
			nodes := c.NodesMin
			if z := widthZipf[ci]; z != nil {
				nodes = c.NodesMin + z.Rank(r)
			}
			elapsed := int64(r.LogNormal(c.RuntimeMu, c.RuntimeSig))
			if elapsed < 30 {
				elapsed = 30
			}
			const maxElapsed = 7 * day
			if elapsed > maxElapsed {
				elapsed = maxElapsed
			}
			limit := elapsed + int64(float64(elapsed)*c.LimitSlack*r.Float64()) + 60
			state := StateCompleted
			switch u := r.Float64(); {
			case u < m.FailRate:
				state = StateFailed
				elapsed = int64(float64(elapsed) * r.Float64()) // died early
				if elapsed < 1 {
					elapsed = 1
				}
			case u < m.FailRate+m.TimeoutRate:
				state = StateTimeout
				elapsed = limit // ran into the wall
			}
			j := Job{
				ID:        id,
				User:      users[userZipf.Rank(r)],
				Account:   fieldCat.Draw(r),
				Partition: c.Partition,
				Year:      m.Year,
				Submit:    int64(d*day) + diurnalSecond(r),
				Nodes:     nodes,
				CoresPer:  c.CoresPer,
				GPUs:      c.GPUsPer * nodes,
				Limit:     limit,
				Elapsed:   elapsed,
				State:     state,
				Language:  langCat.Draw(r),
			}
			if err := j.Validate(); err != nil {
				return fmt.Errorf("trace: generated invalid job: %w", err)
			}
			pending = append(pending, j)
			id++
			// Job arrays: emit sibling tasks from the same user with
			// the same shape, seconds apart, with per-task runtime
			// jitter — the parameter-sweep burst pattern.
			if c.ArrayMax > 1 && r.Bool(arrayRate) {
				tasks := 1 + r.Intn(c.ArrayMax)
				for t := 0; t < tasks; t++ {
					sib := j
					sib.ID = id
					sib.Submit = j.Submit + int64(t) + 1
					el := int64(float64(j.Elapsed) * r.Range(0.8, 1.2))
					if el < 1 {
						el = 1
					}
					if el > sib.Limit {
						el = sib.Limit
					}
					sib.Elapsed = el
					if sib.State == StateTimeout {
						sib.Elapsed = sib.Limit
					}
					if err := sib.Validate(); err != nil {
						return fmt.Errorf("trace: generated invalid array task: %w", err)
					}
					pending = append(pending, sib)
					id++
				}
			}
		}
	}
	return flushBefore(math.MaxInt64)
}

// arrayRate is the chance that a draw of a class with ArrayMax > 1
// becomes a job array.
const arrayRate = 0.3

// dayFactor scales day d's arrival rate. Weekly and diurnal structure:
// weekends run at under half the weekday rate, and submissions
// concentrate in working hours (diurnalSecond) — the shape every campus
// accounting log shows.
func dayFactor(d int) float64 {
	if d%7 >= 5 {
		return 0.45
	}
	return 1
}

// SizeHint returns a job count a generation of m rarely exceeds, to
// size the columns it fills: the expected count, with weekend days at
// their rate and array tasks included, plus four standard deviations of
// that compound-Poisson total. It draws nothing.
func (m *WorkloadModel) SizeHint() int {
	wsum := 0.0
	for _, c := range m.Classes {
		wsum += c.Weight
	}
	// A draw is one job plus, as an array, tasks uniform on 1..ArrayMax:
	// E[tasks] and E[tasks²] per draw.
	var tasks, tasksSq float64
	for _, c := range m.Classes {
		if k := float64(c.ArrayMax); k > 1 && wsum > 0 {
			p := arrayRate * c.Weight / wsum
			tasks, tasksSq = tasks+p*(k+1)/2, tasksSq+p*(k+1)*(2*k+1)/6
		}
	}
	draws := 0.0
	for d := 0; d < m.Days; d++ {
		draws += m.JobsPerDay * dayFactor(d)
	}
	return int(draws*(1+tasks) + 4*math.Sqrt(draws*(1+2*tasks+tasksSq)))
}

// hourWeights is the within-day submission intensity profile (sums to
// 1): quiet overnight, ramping through the morning, peaking early
// afternoon.
var hourWeights = [24]float64{
	0.010, 0.008, 0.007, 0.006, 0.006, 0.008, // 00-05
	0.012, 0.020, 0.040, 0.060, 0.070, 0.075, // 06-11
	0.072, 0.075, 0.078, 0.075, 0.070, 0.060, // 12-17
	0.050, 0.040, 0.032, 0.028, 0.022, 0.016, // 18-23
}

// hourAlias is the cumulative sampler over hourWeights, built once.
var hourAlias = func() *rng.Alias {
	ws := make([]float64, 24)
	copy(ws, hourWeights[:])
	return rng.MustAlias(ws)
}()

// diurnalSecond draws a second-of-day following the diurnal profile.
func diurnalSecond(r *rng.RNG) int64 {
	h := hourAlias.Draw(r)
	return int64(h*3600 + r.Intn(3600))
}

// CampusModel returns the per-year workload model for the synthetic
// campus cluster. gpuGrowth maps the calendar year onto the GPU class
// weight and language mix, reproducing the telemetry-side adoption
// trends (R-F1/F2) without hard-coding any output numbers.
func CampusModel(year int) *WorkloadModel {
	// Interpolation knob: 0 at 2011, 1 at 2024.
	t := float64(year-2011) / 13
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	lerp := func(a, b float64) float64 { return a + (b-a)*t }
	return &WorkloadModel{
		Year:       year,
		Users:      400,
		JobsPerDay: lerp(120, 420),
		Days:       30, // one representative month per year
		Classes: []JobClass{
			{Name: "serial", Weight: lerp(45, 25), Partition: "cpu",
				NodesMin: 1, NodesMax: 1, CoresPer: 1,
				RuntimeMu: 7.5, RuntimeSig: 1.4, LimitSlack: 2.0,
				ArrayMax: 10},
			{Name: "smp", Weight: lerp(25, 28), Partition: "cpu",
				NodesMin: 1, NodesMax: 1, CoresPer: 16,
				RuntimeMu: 8.6, RuntimeSig: 1.2, LimitSlack: 1.5},
			{Name: "mpi-small", Weight: lerp(18, 16), Partition: "cpu",
				NodesMin: 2, NodesMax: 8, CoresPer: 32,
				RuntimeMu: 9.2, RuntimeSig: 1.1, LimitSlack: 1.2},
			{Name: "mpi-wide", Weight: lerp(8, 6), Partition: "cpu",
				NodesMin: 16, NodesMax: 128, CoresPer: 32,
				RuntimeMu: 9.8, RuntimeSig: 1.0, LimitSlack: 1.0},
			{Name: "gpu-single", Weight: lerp(3, 15), Partition: "gpu",
				NodesMin: 1, NodesMax: 1, CoresPer: 8, GPUsPer: 1,
				RuntimeMu: 9.0, RuntimeSig: 1.3, LimitSlack: 1.5,
				ArrayMax: 6},
			{Name: "gpu-train", Weight: lerp(1, 10), Partition: "gpu",
				NodesMin: 1, NodesMax: 8, CoresPer: 16, GPUsPer: 4,
				RuntimeMu: 10.2, RuntimeSig: 1.0, LimitSlack: 0.8},
		},
		FieldShare: map[string]float64{
			"astronomy": 0.06, "biology": 0.12, "chemistry": 0.14,
			"computer science": lerp(0.08, 0.16), "earth science": 0.10,
			"economics": 0.03, "engineering": 0.18, "mathematics": 0.03,
			"neuroscience":      lerp(0.04, 0.08),
			"physics":           lerp(0.26, 0.14),
			"political science": 0.02, "sociology": 0.02,
			"other": lerp(0.04-0.00, 0.00),
		},
		LangShare: map[string]float64{
			"python":  lerp(0.18, 0.62),
			"c":       lerp(0.16, 0.06),
			"c++":     lerp(0.16, 0.12),
			"fortran": lerp(0.30, 0.08),
			"matlab":  lerp(0.14, 0.05),
			"r":       lerp(0.05, 0.05),
			"julia":   lerp(0.00, 0.02),
			"other":   lerp(0.01, 0.00),
		},
		FailRate:    0.06,
		TimeoutRate: 0.04,
	}
}
