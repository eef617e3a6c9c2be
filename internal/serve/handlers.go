package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/sched"
	"repro/internal/survey"
)

// apiError is the JSON error envelope every non-2xx body uses. Stage is
// set when the failure is attributable to one pipeline stage (a typed
// parallel.StageError), and Peer when that stage failed on a remote
// replica (a cluster.RemoteStageError in the chain), so clients and
// dashboards see *where* a run died without parsing the message.
type apiError struct {
	Error string `json:"error"`
	Stage string `json:"stage,omitempty"`
	Peer  string `json:"peer,omitempty"`
}

// writeJSON encodes v with a fixed field order (struct-driven), sending
// status first. Encoder failures after the header are counted as write
// errors; they cannot be turned into a different status anymore.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.writeErrors.Inc()
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, msg string) {
	s.writeJSON(w, status, apiError{Error: msg})
}

// writeRunError maps a pipeline-execution failure onto the HTTP
// surface: breaker-open and cancellations are capacity conditions
// (503), a run that outlived its budget is 504, and a genuine stage
// failure is a 500 carrying the stage name.
func (s *Server) writeRunError(w http.ResponseWriter, err error) {
	var coe circuitOpenError
	switch {
	case errors.As(err, &coe):
		secs := int((coe.retryAfter + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprint(secs))
		s.writeJSON(w, http.StatusServiceUnavailable, apiError{Error: err.Error()})
	case errors.Is(err, context.DeadlineExceeded):
		s.writeJSON(w, http.StatusGatewayTimeout, apiError{Error: "pipeline run exceeded its time budget"})
	case errors.Is(err, context.Canceled):
		s.writeJSON(w, http.StatusServiceUnavailable, apiError{Error: "pipeline run cancelled"})
	default:
		var se *parallel.StageError
		if errors.As(err, &se) {
			ae := apiError{Error: err.Error(), Stage: se.Stage}
			var rse *cluster.RemoteStageError
			if errors.As(err, &rse) {
				ae.Peer = rse.Peer
			}
			s.writeJSON(w, http.StatusInternalServerError, ae)
			return
		}
		s.writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
	}
}

// failRender handles a render request whose pipeline run failed:
// degrade to the last good body for the same artifact+format if one
// exists (stale-while-error, marked via X-Rcpt-Stale so clients can
// tell), otherwise surface the typed error.
func (s *Server) failRender(w http.ResponseWriter, r *http.Request, artifact, format string, err error) {
	if se, ok := s.lookupStale(artifact, format); ok {
		s.staleServed.Inc()
		w.Header().Set("X-Rcpt-Stale", "error")
		if se.fingerprint != "" {
			w.Header().Set("X-Rcpt-Stale-Fingerprint", se.fingerprint)
		}
		s.writeCached(w, r, se.entry)
		return
	}
	s.writeRunError(w, err)
}

// writeCached serves a rendered artifact with its content-derived ETag,
// honoring If-None-Match (strong comparison; `*` matches anything).
func (s *Server) writeCached(w http.ResponseWriter, r *http.Request, e cacheEntry) {
	w.Header().Set("ETag", e.etag)
	w.Header().Set("Cache-Control", "public, max-age=0, must-revalidate")
	if match := r.Header.Get("If-None-Match"); match != "" && etagMatches(match, e.etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", e.contentType)
	if _, err := w.Write(e.body); err != nil {
		s.writeErrors.Inc()
	}
}

// etagMatches implements the If-None-Match comparison for strong,
// quoted tags: a comma-separated candidate list or `*`.
func etagMatches(header, etag string) bool {
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, candidate := range strings.Split(header, ",") {
		candidate = strings.TrimSpace(candidate)
		candidate = strings.TrimPrefix(candidate, "W/")
		if candidate == etag {
			return true
		}
	}
	return false
}

// ---- probes, metrics, index ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if _, err := io.WriteString(w, "ok\n"); err != nil {
		s.writeErrors.Inc()
	}
}

// readyzBody is the cluster-mode /readyz detail: whether this replica
// considers itself ready, plus the peer view a load balancer or
// operator needs to see *why*.
type readyzBody struct {
	Ready         bool                 `json:"ready"`
	Degraded      bool                 `json:"degraded"`
	Epoch         string               `json:"epoch"`
	QuorumHealthy int                  `json:"quorumHealthy"`
	QuorumTotal   int                  `json:"quorumTotal"`
	Peers         []cluster.PeerHealth `json:"peers"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.retryLater(w, http.StatusServiceUnavailable, "draining")
		return
	}
	if s.cluster == nil {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if _, err := io.WriteString(w, "ready\n"); err != nil {
			s.writeErrors.Inc()
		}
		return
	}
	// Cluster mode: a replica with dead peers can still serve everything
	// by itself (local compute is always a correct fallback), so peer
	// loss is degraded capacity, reported in the body — not unreadiness.
	// Strict mode inverts that for deployments where a load balancer
	// should drop minority-partition replicas: losing quorum turns the
	// same body into a 503.
	healthy, total := s.cluster.Quorum()
	body := readyzBody{
		Ready:         true,
		Degraded:      healthy < total,
		Epoch:         s.cluster.EpochHex(),
		QuorumHealthy: healthy,
		QuorumTotal:   total,
		Peers:         s.cluster.PeerHealth(),
	}
	if s.opts.ReadyzQuorumStrict && 2*healthy <= total {
		body.Ready = false
		s.writeJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	s.writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WritePrometheus(w); err != nil {
		s.writeErrors.Inc()
	}
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	const index = `rcpt-serve — Revisiting Computation for Research, as a service

GET  /v1/experiments        experiment registry (IDs, titles, kinds)
GET  /v1/tables/{id}        table as JSON (?format=txt|csv|md), e.g. /v1/tables/T5
GET  /v1/figures/{id}       figure as SVG, e.g. /v1/figures/F3
POST /v1/run                parameterized pipeline run keyed by (config, seed)
GET  /v1/tables/{id}?run=F  render against a completed run's fingerprint
POST /v1/responses          validate NDJSON survey responses against the instrument
GET  /v1/stats/chisquare    ?rows=&cols=&counts=a,b,... (&test=g)
GET  /v1/stats/ci           ?successes=&n=(&level=0.95)
GET  /v1/stats/oddsratio    ?a=&b=&c=&d=
GET  /metrics               Prometheus exposition
GET  /healthz, /readyz      liveness / readiness
`
	if _, err := io.WriteString(w, index); err != nil {
		s.writeErrors.Inc()
	}
}

// ---- experiments, tables, figures ----

// experimentInfo is one registry entry on the wire.
type experimentInfo struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	Kind  string `json:"kind"`
	Path  string `json:"path"`
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	var out []experimentInfo
	for _, e := range core.Registry() {
		path := "/v1/tables/" + e.ID
		if e.Kind == core.KindFigure {
			path = "/v1/figures/" + e.ID
		}
		out = append(out, experimentInfo{ID: e.ID, Title: e.Title, Kind: string(e.Kind), Path: path})
	}
	s.writeJSON(w, http.StatusOK, out)
}

// tableFormats maps ?format= values to renderers and content types.
var tableFormats = map[string]struct {
	contentType string
	render      func(t *report.Table, w io.Writer) error
}{
	"json": {"application/json", (*report.Table).WriteJSON},
	"txt":  {"text/plain; charset=utf-8", (*report.Table).WriteASCII},
	"csv":  {"text/csv; charset=utf-8", (*report.Table).WriteCSV},
	"md":   {"text/markdown; charset=utf-8", (*report.Table).WriteMarkdown},
}

// renderArtifact renders one experiment (table or figure) from a
// completed run into a body — the one rendering path shared by
// client requests, cluster fills of never-seen runs, and takeover
// computes, so every replica producing a given (render key, artifact,
// format) produces the same bytes and therefore the same ETag.
func renderArtifact(arts *core.Artifacts, id, format string) ([]byte, error) {
	exp, err := core.Lookup(id)
	if err != nil {
		return nil, err
	}
	if err := checkFormat(exp, format); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if exp.Kind == core.KindFigure {
		if err := exp.Figure(arts, &buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	tab, err := exp.Table(arts)
	if err != nil {
		return nil, err
	}
	if err := tableFormats[format].render(tab, &buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkFormat reports whether exp renders in format: tables as json,
// txt, csv or md, figures only as svg.
func checkFormat(exp core.Experiment, format string) error {
	if exp.Kind == core.KindFigure {
		if format != "svg" {
			return fmt.Errorf("figure %s renders only as svg, not %q", exp.ID, format)
		}
		return nil
	}
	if _, ok := tableFormats[format]; !ok {
		return fmt.Errorf("unknown format %q (json, txt, csv, md)", format)
	}
	return nil
}

// resolveRun picks the run a render request refers to: the base run by
// default, or a previously executed run via ?run=<fingerprint>. It
// returns the run's render keys, known without running anything, and a
// closure that executes (or joins) the run under ctx — the request's
// deadline and disconnect propagate into the pipeline.
func (s *Server) resolveRun(w http.ResponseWriter, r *http.Request) (fp string, keys map[string]string, arts func(ctx context.Context) (*core.Artifacts, error), ok bool) {
	if ref := r.URL.Query().Get("run"); ref != "" {
		if run, found := s.runner.lookup(ref); found {
			return ref, run.keys, func(context.Context) (*core.Artifacts, error) { return run.arts, nil }, true
		}
		s.writeError(w, http.StatusNotFound,
			"unknown or evicted run fingerprint; POST /v1/run to (re)execute it")
		return "", nil, nil, false
	}
	return s.baseFP, s.baseKeys, func(ctx context.Context) (*core.Artifacts, error) {
		run, err := s.runner.artifacts(ctx, s.baseFP, s.baseCfg)
		if err != nil {
			return nil, err
		}
		return run.arts, nil
	}, true
}

// handleArtifact serves GET /v1/tables/{id} (kind KindTable, ?format=
// json by default, or txt, csv, md) and GET /v1/figures/{id} (kind
// KindFigure, always svg).
func (s *Server) handleArtifact(kind core.Kind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		format := "svg"
		if kind == core.KindTable {
			if format = r.URL.Query().Get("format"); format == "" {
				format = "json"
			}
			if _, ok := tableFormats[format]; !ok {
				s.writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown format %q (json, txt, csv, md)", format))
				return
			}
		}
		exp, err := core.Lookup(id)
		if err != nil {
			s.writeError(w, http.StatusNotFound, err.Error())
			return
		}
		if exp.Kind != kind {
			s.writeError(w, http.StatusBadRequest, fmt.Sprintf("%s is a %s; GET /v1/%ss/%s", id, exp.Kind, exp.Kind, id))
			return
		}
		fp, keys, artsFn, ok := s.resolveRun(w, r)
		if !ok {
			return
		}
		key := cacheKey{artifact: id, format: format, content: keys[id]}
		if e, hit := s.cacheGet(key); hit {
			s.writeCached(w, r, e)
			return
		}
		ctx, cancel := s.runContext(r)
		defer cancel()
		if s.cluster != nil && fp == s.baseFP {
			e, err := s.clusterRender(ctx, fp, key)
			if err != nil {
				s.failRender(w, r, id, format, err)
				return
			}
			s.writeCached(w, r, e)
			return
		}
		arts, err := artsFn(ctx)
		if err != nil {
			s.failRender(w, r, id, format, err)
			return
		}
		body, err := renderArtifact(arts, id, format)
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		s.writeCached(w, r, s.cachePut(fp, key, body))
	}
}

// ---- POST /v1/run ----

// runRequest is the body of POST /v1/run. Pointer fields distinguish
// "omitted, use the server default" from explicit zero values.
type runRequest struct {
	Seed       *uint64  `json:"seed"`
	N2011      *int     `json:"n2011"`
	N2024      *int     `json:"n2024"`
	TraceYears []int    `json:"traceYears"`
	SimYear    *int     `json:"simYear"`
	Policy     *string  `json:"policy"` // "fcfs" | "easy" | "conservative"
	Rake       *bool    `json:"rake"`
	PanelN     *int     `json:"panelN"`
	NoiseRate  *float64 `json:"noiseRate"`
}

// runSummary is the response body: the resolved config, its
// fingerprint (the cache/ETag key), cohort outcomes, and headline
// scheduler metrics, plus the artifact paths to render against the run.
type runSummary struct {
	Fingerprint string       `json:"fingerprint"`
	Config      configEcho   `json:"config"`
	Cohorts     cohortsEcho  `json:"cohorts"`
	Jobs        int          `json:"jobs"`
	Scheduler   schedSummary `json:"scheduler"`
	TablesPath  string       `json:"tablesPath"`
	FiguresPath string       `json:"figuresPath"`
}

type configEcho struct {
	Seed       uint64  `json:"seed"`
	N2011      int     `json:"n2011"`
	N2024      int     `json:"n2024"`
	TraceYears []int   `json:"traceYears"`
	SimYear    int     `json:"simYear"`
	Policy     string  `json:"policy"`
	Rake       bool    `json:"rake"`
	PanelN     int     `json:"panelN"`
	NoiseRate  float64 `json:"noiseRate"`
}

type cohortsEcho struct {
	Kept2011       int     `json:"kept2011"`
	Kept2024       int     `json:"kept2024"`
	EffectiveN2011 float64 `json:"effectiveN2011"`
	EffectiveN2024 float64 `json:"effectiveN2024"`
}

type schedSummary struct {
	Policy     string  `json:"policy"`
	MeanWait   float64 `json:"meanWaitSeconds"`
	P95Wait    float64 `json:"p95WaitSeconds"`
	AvgCPUUtil float64 `json:"avgCpuUtil"`
	Fairness   float64 `json:"userFairness"`
}

// parsePolicy maps the wire names onto sched policies.
func parsePolicy(name string) (sched.Policy, error) {
	switch strings.ToLower(name) {
	case "fcfs":
		return sched.FCFS, nil
	case "easy":
		return sched.EASYBackfill, nil
	case "conservative":
		return sched.ConservativeBackfill, nil
	}
	return 0, fmt.Errorf("unknown policy %q (fcfs, easy, conservative)", name)
}

func policyName(p sched.Policy) string {
	switch p {
	case sched.FCFS:
		return "fcfs"
	case sched.ConservativeBackfill:
		return "conservative"
	default:
		return "easy"
	}
}

// buildRunConfig resolves a runRequest against the base config and
// enforces the work-admission caps.
func (s *Server) buildRunConfig(req runRequest) (core.Config, error) {
	cfg := s.baseCfg
	cfg.TraceYears = append([]int(nil), s.baseCfg.TraceYears...)
	if req.Seed != nil {
		cfg.Seed = *req.Seed
	}
	if req.N2011 != nil {
		cfg.N2011 = *req.N2011
	}
	if req.N2024 != nil {
		cfg.N2024 = *req.N2024
	}
	if req.TraceYears != nil {
		cfg.TraceYears = append([]int(nil), req.TraceYears...)
		// A single-year request implies simulating that year unless the
		// caller pins one explicitly.
		if req.SimYear == nil && len(req.TraceYears) == 1 {
			cfg.SimYear = req.TraceYears[0]
		}
	}
	if req.SimYear != nil {
		cfg.SimYear = *req.SimYear
	}
	if req.Policy != nil {
		p, err := parsePolicy(*req.Policy)
		if err != nil {
			return core.Config{}, err
		}
		cfg.Policy = p
	}
	if req.Rake != nil {
		cfg.Rake = *req.Rake
	}
	if req.PanelN != nil {
		cfg.PanelN = *req.PanelN
	}
	if req.NoiseRate != nil {
		cfg.NoiseRate = *req.NoiseRate
	}
	if err := s.checkCaps(cfg); err != nil {
		return core.Config{}, err
	}
	if err := cfg.Validate(); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// checkCaps enforces the work-admission caps on a config POST /v1/run
// would run.
func (s *Server) checkCaps(cfg core.Config) error {
	if cfg.N2011 > s.opts.MaxCohort || cfg.N2024 > s.opts.MaxCohort {
		return fmt.Errorf("cohort size exceeds the server cap of %d", s.opts.MaxCohort)
	}
	if cfg.PanelN > s.opts.MaxCohort {
		return fmt.Errorf("panel size exceeds the server cap of %d", s.opts.MaxCohort)
	}
	if len(cfg.TraceYears) > maxTraceYears {
		return fmt.Errorf("trace years exceed the server cap of %d", maxTraceYears)
	}
	return nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	var req runRequest
	body := http.MaxBytesReader(w, r.Body, 1<<20)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil && err != io.EOF {
		s.writeError(w, http.StatusBadRequest, "bad run request: "+err.Error())
		return
	}
	cfg, err := s.buildRunConfig(req)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	fp := cfg.Fingerprint()
	key := cacheKey{artifact: "run", format: "json", content: fp}
	// The summary's tablesPath resolves only while the runner retains the
	// run, so the cached summary is served only then. Past the run's
	// eviction it re-executes; determinism makes the body and ETag
	// identical, and the link works again.
	if s.runner.knows(fp) {
		if e, hit := s.cacheGet(key); hit {
			s.writeCached(w, r, e)
			return
		}
	}
	ctx, cancel := s.runContext(r)
	defer cancel()
	run, err := s.runner.artifacts(ctx, fp, cfg)
	if err != nil {
		// No stale degradation here: POST /v1/run callers need the truth
		// about their configuration, typed and attributed.
		s.writeRunError(w, err)
		return
	}
	arts := run.arts
	sum := runSummary{
		Fingerprint: fp,
		Config: configEcho{
			Seed: cfg.Seed, N2011: cfg.N2011, N2024: cfg.N2024,
			TraceYears: cfg.TraceYears, SimYear: cfg.SimYear,
			Policy: policyName(cfg.Policy), Rake: cfg.Rake,
			PanelN: cfg.PanelN, NoiseRate: cfg.NoiseRate,
		},
		Cohorts: cohortsEcho{
			Kept2011: len(arts.Cohort2011), Kept2024: len(arts.Cohort2024),
			EffectiveN2011: arts.Rake2011.EffectiveN, EffectiveN2024: arts.Rake2024.EffectiveN,
		},
		Jobs: arts.JobCount(),
		Scheduler: schedSummary{
			Policy:     arts.Sim.Metrics.Policy.String(),
			MeanWait:   arts.Sim.Metrics.MeanWait,
			P95Wait:    arts.Sim.Metrics.P95Wait,
			AvgCPUUtil: arts.Sim.Metrics.AvgCPUUtil,
			Fairness:   arts.Sim.Metrics.UserFairness,
		},
		TablesPath:  "/v1/tables/{id}?run=" + fp,
		FiguresPath: "/v1/figures/{id}?run=" + fp,
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(sum); err != nil {
		s.writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.writeCached(w, r, s.cachePut(fp, key, buf.Bytes()))
}

// ---- POST /v1/responses ----

// validationVerdict is one response's outcome.
type validationVerdict struct {
	ID     string           `json:"id"`
	Valid  bool             `json:"valid"`
	Errors []validationItem `json:"errors,omitempty"`
}

type validationItem struct {
	Question string `json:"question"`
	Reason   string `json:"reason"`
}

// validationReport summarizes a POST /v1/responses batch.
type validationReport struct {
	Received int                 `json:"received"`
	Valid    int                 `json:"valid"`
	Invalid  int                 `json:"invalid"`
	Results  []validationVerdict `json:"results"`
}

func (s *Server) handleResponses(w http.ResponseWriter, r *http.Request) {
	ins := survey.Canonical()
	body := http.MaxBytesReader(w, r.Body, 16<<20)
	responses, err := ins.DecodeJSON(body)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	rep := validationReport{Received: len(responses), Results: []validationVerdict{}}
	for _, resp := range responses {
		v := validationVerdict{ID: resp.ID, Valid: true}
		for _, e := range ins.Validate(resp) {
			v.Valid = false
			v.Errors = append(v.Errors, validationItem{Question: e.QuestionID, Reason: e.Reason})
		}
		if v.Valid {
			rep.Valid++
			s.validated.With("valid").Inc()
		} else {
			rep.Invalid++
			s.validated.With("invalid").Inc()
		}
		rep.Results = append(rep.Results, v)
	}
	status := http.StatusOK
	if rep.Invalid > 0 {
		// The batch was processed, but not everything passed; 422 lets
		// scripted clients branch without parsing the body.
		status = http.StatusUnprocessableEntity
	}
	s.writeJSON(w, status, rep)
}
