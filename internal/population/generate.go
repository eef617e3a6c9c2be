package population

import (
	"fmt"
	"sort"

	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/survey"
)

// Generator produces synthetic respondents for one cohort model.
type Generator struct {
	model      *Model
	instrument *survey.Instrument
	fieldCat   *rng.Categorical
	careerCat  *rng.Categorical
	clusterCat *rng.Categorical

	// The multi-select questions' options with their log-odds, computed
	// once: languages per field that has a boost map (fieldLangs) or from
	// the base rates alone (baseLangs), the other questions from their
	// base rates.
	fieldLangs                    map[string][]option
	baseLangs                     []option
	parallelism, practices, tools []option
}

// option is one available option of a multi-select question and the
// log-odds of selecting it before any latent shift.
type option struct {
	name    string
	logOdds float64
}

// multiOptions returns the options base makes available (a positive
// base rate), each with the log-odds of its base rate plus boost,
// clamped; a nil boost leaves the base rate unclamped.
func multiOptions(options []string, base, boost map[string]float64) []option {
	out := make([]option, 0, len(options))
	for _, opt := range options {
		p := base[opt]
		if p <= 0 {
			// Structurally unavailable option (e.g. Julia in 2011):
			// no field boost or latent shift can resurrect it.
			continue
		}
		if boost != nil {
			p = clampProb(p+boost[opt], 0.001, 0.99)
		}
		out = append(out, option{opt, logit(p)})
	}
	return out
}

// NewGenerator validates the model and prepares samplers.
func NewGenerator(m *Model) (*Generator, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	fieldCat, err := rng.NewCategorical(m.FieldShare)
	if err != nil {
		return nil, fmt.Errorf("population: field sampler: %w", err)
	}
	careerCat, err := rng.NewCategorical(m.CareerShare)
	if err != nil {
		return nil, fmt.Errorf("population: career sampler: %w", err)
	}
	clusterCat, err := rng.NewCategorical(m.ClusterUse)
	if err != nil {
		return nil, fmt.Errorf("population: cluster sampler: %w", err)
	}
	g := &Generator{
		model:       m,
		instrument:  survey.Canonical(),
		fieldCat:    fieldCat,
		careerCat:   careerCat,
		clusterCat:  clusterCat,
		fieldLangs:  map[string][]option{},
		baseLangs:   multiOptions(survey.Languages, m.LangBase, nil),
		parallelism: multiOptions(survey.ParallelismModes, m.ParallelismBase, nil),
		practices:   multiOptions(survey.EngineeringPractices, m.PracticeBase, nil),
	}
	for field, boost := range m.FieldLangBoost {
		if boost != nil {
			g.fieldLangs[field] = multiOptions(survey.Languages, m.LangBase, boost)
		}
	}
	if m.ToolBase != nil {
		g.tools = multiOptions(survey.ModernTools, m.ToolBase, nil)
	}
	return g, nil
}

// Instrument returns the canonical instrument the generator fills in.
func (g *Generator) Instrument() *survey.Instrument { return g.instrument }

// GenerateRespondents draws until n completed responses have been
// collected, simulating nonresponse: each sampled population member
// responds with probability BaseResponseRate × field bias × career bias
// (clamped to [0.02, 1]). The skipped members are what the weighting
// stage corrects for. Generation is deterministic in r.
func (g *Generator) GenerateRespondents(r *rng.RNG, n int) ([]*survey.Response, error) {
	if n <= 0 {
		return nil, fmt.Errorf("population: need n > 0 respondents, got %d", n)
	}
	out := make([]*survey.Response, 0, n)
	attempts := 0
	maxAttempts := n * 1000 // nonresponse cannot stall generation forever
	for len(out) < n {
		attempts++
		if attempts > maxAttempts {
			return nil, fmt.Errorf("population: gave up after %d attempts for %d respondents", attempts, n)
		}
		field := g.fieldCat.Draw(r)
		career := g.careerCat.Draw(r)
		p := g.model.BaseResponseRate * g.model.FieldResponseBias[field] * g.model.CareerResponseBias[career]
		if !r.Bool(clampProb(p, 0.02, 1)) {
			continue
		}
		id := fmt.Sprintf("%d-%06d", g.model.Year, len(out))
		resp := g.generateOne(r, id, field, career)
		if errs := g.instrument.Validate(resp); len(errs) > 0 {
			return nil, fmt.Errorf("population: generated invalid response: %v", errs[0])
		}
		out = append(out, resp)
	}
	return out, nil
}

// genChunkSize is the fixed chunk width for parallel generation. Chunk
// boundaries must not depend on the worker count, or different machines
// would generate different cohorts from the same seed.
const genChunkSize = 64

// GenerateParallel produces exactly n respondents fanned out over
// fixed-size chunks executed by up to workers goroutines. Each chunk
// derives a named RNG stream from seed, so output is identical for
// every worker count.
func (g *Generator) GenerateParallel(seed uint64, n, workers int) ([]*survey.Response, error) {
	if n <= 0 {
		return nil, fmt.Errorf("population: need n > 0 respondents, got %d", n)
	}
	root := rng.New(seed)
	nchunks := (n + genChunkSize - 1) / genChunkSize
	partials, err := parallel.Map(workers, parallel.Chunks(n, nchunks), func(_ int, c parallel.Chunk) ([]*survey.Response, error) {
		cr := root.SplitNamed(fmt.Sprintf("%s/chunk-%d", g.instrument.Name, c.Index))
		rs, err := g.GenerateRespondents(cr, c.Hi-c.Lo)
		if err != nil {
			return nil, err
		}
		// Re-key IDs to global positions so chunked output matches a
		// single-stream labeling convention.
		for i, resp := range rs {
			resp.ID = fmt.Sprintf("%d-%06d", g.model.Year, c.Lo+i)
		}
		return rs, nil
	})
	if err != nil {
		return nil, err
	}
	return parallel.Fold(partials, make([]*survey.Response, 0, n),
		func(acc []*survey.Response, part []*survey.Response) []*survey.Response {
			return append(acc, part...)
		}), nil
}

// generateOne fills every instrument answer for one respondent.
func (g *Generator) generateOne(r *rng.RNG, id, field, career string) *survey.Response {
	m := g.model
	resp := survey.NewResponse(id, m.Year)
	resp.SetChoice(survey.QField, field)
	resp.SetChoice(survey.QCareer, career)

	years := yearsCodingFor(r, career)
	resp.SetValue(survey.QYearsCoding, years)
	resp.SetValue(survey.QTeamSize, float64(1+r.Poisson(2.2)))

	// Latent engineering propensity: CS and engineering skew positive,
	// and more years coding nudges it up.
	eng := r.Norm()
	switch field {
	case "computer science":
		eng += 0.8
	case "engineering", "physics", "astronomy":
		eng += 0.3
	}
	eng += (years - 8) / 25

	// Languages: base + field boost; guarantee at least one language by
	// falling back to the cohort's most likely one.
	langOpts, ok := g.fieldLangs[field]
	if !ok {
		langOpts = g.baseLangs
	}
	langs := drawMulti(r, langOpts, 0)
	if len(langs) == 0 {
		langs = []string{mostLikely(m.LangBase)}
	}
	resp.SetChoices(survey.QLanguages, langs)

	// Parallelism: "serial only" is exclusive of the rest.
	par := drawMulti(r, g.parallelism, eng*0.3)
	par = reconcileSerial(par, m.ParallelismBase["serial only"], r)
	resp.SetChoices(survey.QParallelism, par)

	usesGPU := contains(par, "gpu")
	usesCluster := contains(par, "cluster batch jobs") || contains(par, "mpi / multi-node")

	// Engineering practices shift with the latent propensity, with an
	// implication constraint: CI requires version control.
	practices := drawMulti(r, g.practices, eng*m.EngSlope)
	if contains(practices, "continuous integration") && !contains(practices, "version control") {
		practices = append(practices, "version control")
	}
	resp.SetChoices(survey.QPractices, practices)

	// Cluster usage frequency, biased up when the parallelism answers
	// imply cluster work.
	use := g.clusterCat.Draw(r)
	if usesCluster && (use == "never" || use == "a few times a year") && r.Bool(0.7) {
		use = []string{"monthly", "weekly", "daily"}[r.Intn(3)]
	}
	resp.SetChoice(survey.QClusterUse, use)
	if use != "never" {
		resp.SetValue(survey.QClusterHours, clusterHoursFor(r, use))
	}

	// GPU share correlates with GPU parallelism selection.
	gpuShare := 0.0
	if usesGPU {
		gpuShare = clampProb(m.GPUAffinity+r.NormMeanStd(0.15, 0.15), 0.01, 1)
	} else if r.Bool(0.1) {
		gpuShare = clampProb(r.NormMeanStd(0.05, 0.05), 0, 0.3)
	}
	resp.SetValue(survey.QGPUShare, float64(int(gpuShare*100)))

	// Modern tools only exist on the 2024 instrument.
	if m.ToolBase != nil {
		tools := drawMulti(r, g.tools, eng*0.4)
		resp.SetChoices(survey.QModernTools, tools)
	}

	resp.SetText(survey.QBottleneck, drawBottleneck(r, usesGPU || usesCluster, eng))

	// Training Likert: correlated with the same latent propensity.
	training := 1 + int(clampProb(logistic(eng+m.TrainingShift)*4+r.NormMeanStd(0, 0.7), 0, 4))
	if training > 5 {
		training = 5
	}
	resp.SetRating(survey.QTraining, training)
	return resp
}

// drawMulti selects options independently with per-option probability
// logistic(log-odds + shift).
func drawMulti(r *rng.RNG, opts []option, shift float64) []string {
	var out []string
	for _, o := range opts {
		if r.Bool(logistic(o.logOdds + shift)) {
			out = append(out, o.name)
		}
	}
	return out
}

// reconcileSerial enforces that "serial only" excludes other modes: if
// both were drawn, keep whichever side the base rate favors.
func reconcileSerial(par []string, serialBase float64, r *rng.RNG) []string {
	hasSerial := contains(par, "serial only")
	others := make([]string, 0, len(par))
	for _, p := range par {
		if p != "serial only" {
			others = append(others, p)
		}
	}
	switch {
	case hasSerial && len(others) > 0:
		if r.Bool(serialBase) {
			return []string{"serial only"}
		}
		return others
	case !hasSerial && len(others) == 0:
		return []string{"serial only"}
	case hasSerial:
		return []string{"serial only"}
	default:
		return others
	}
}

// yearsCodingFor draws experience consistent with career stage.
func yearsCodingFor(r *rng.RNG, career string) float64 {
	var mu, sigma float64
	switch career {
	case "undergraduate":
		mu, sigma = 2, 1
	case "graduate student":
		mu, sigma = 5, 2
	case "postdoc":
		mu, sigma = 9, 3
	case "research staff":
		mu, sigma = 12, 5
	default: // faculty
		mu, sigma = 18, 7
	}
	y := r.NormMeanStd(mu, sigma)
	if y < 0 {
		y = 0
	}
	if y > 60 {
		y = 60
	}
	return float64(int(y*10)) / 10
}

// clusterHoursFor draws weekly cluster hours consistent with usage
// frequency (lognormal, heavier for daily users).
func clusterHoursFor(r *rng.RNG, use string) float64 {
	var mu float64
	switch use {
	case "a few times a year":
		mu = 0.5
	case "monthly":
		mu = 1.5
	case "weekly":
		mu = 3.0
	default: // daily
		mu = 4.5
	}
	h := r.LogNormal(mu, 0.8)
	if h > 100000 {
		h = 100000
	}
	return float64(int(h*10)) / 10
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

func mostLikely(m map[string]float64) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	best, bestP := keys[0], m[keys[0]]
	for _, k := range keys[1:] {
		if m[k] > bestP {
			best, bestP = k, m[k]
		}
	}
	return best
}
