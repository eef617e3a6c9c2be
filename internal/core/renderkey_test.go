package core

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/sched"
)

// renderFormats renders e from a in every format it has: a table as
// json, txt, csv and md, a figure as svg. A render error is recorded as
// the body, so two failing renders compare by their messages.
func renderFormats(a *Artifacts, e Experiment) map[string][]byte {
	out := map[string][]byte{}
	if e.Kind == KindFigure {
		var buf bytes.Buffer
		if err := e.Figure(a, &buf); err != nil {
			return map[string][]byte{"error": []byte(err.Error())}
		}
		out["svg"] = buf.Bytes()
		return out
	}
	tab, err := e.Table(a)
	if err != nil {
		return map[string][]byte{"error": []byte(err.Error())}
	}
	for format, write := range map[string]func(io.Writer) error{
		"json": tab.WriteJSON, "txt": tab.WriteASCII, "csv": tab.WriteCSV, "md": tab.WriteMarkdown,
	} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			out[format] = []byte("error: " + err.Error())
			continue
		}
		out[format] = buf.Bytes()
	}
	return out
}

// sameRenders reports the first format in which x and y differ.
func sameRenders(x, y map[string][]byte) (string, bool) {
	for format, body := range x {
		if !bytes.Equal(body, y[format]) {
			return format, false
		}
	}
	for format := range y {
		if _, ok := x[format]; !ok {
			return format, false
		}
	}
	return "", true
}

// declaredOnly returns Artifacts of cfg holding only what e declares:
// the outputs of the stages it reads and of their Merkle ancestors,
// restored from the payloads a full run of cfg left in cache, plus the
// uncached wiring stage whose inputs are all held (jobs-merge). Every
// other slot stays zero, so an undeclared read — directly or through a
// memo method such as JobSummaries or Tabulation — finds nothing.
func declaredOnly(t *testing.T, cfg Config, cache *mapStageCache, e Experiment) *Artifacts {
	t.Helper()
	a := newArtifacts(cfg)
	specs, err := stages(cfg, a)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for i := len(specs) - 1; i >= 0; i-- {
		if s := specs[i]; want[s.name] || e.readsStage(s.name) {
			want[s.name] = true
			for _, d := range s.deps {
				want[d] = true
			}
		}
	}
	sc := newStageCacher(nil)
	held := map[string]bool{}
	for _, s := range specs {
		key := sc.key(s)
		switch {
		case want[s.name] && s.encode != nil:
			payload, ok := cache.Load(key)
			if !ok {
				t.Fatalf("%s: no payload for %s", e.ID, s.name)
			}
			if err := restore(s, payload); err != nil {
				t.Fatalf("%s: restoring %s: %v", e.ID, s.name, err)
			}
			held[s.name] = true
		case s.encode == nil && len(s.deps) > 0 && !slices.ContainsFunc(s.deps, func(d string) bool { return !held[d] }):
			v, err := s.run()
			if err == nil {
				err = s.set(v)
			}
			if err != nil {
				t.Fatalf("%s: %s: %v", e.ID, s.name, err)
			}
			held[s.name] = true
		}
	}
	return a
}

// perturbations change each artifact-affecting Config field to another
// valid value of smallConfig's shape.
var perturbations = map[string]func(*Config){
	"seed":       func(c *Config) { c.Seed += 1000 },
	"n2011":      func(c *Config) { c.N2011 += 7 },
	"n2024":      func(c *Config) { c.N2024 += 7 },
	"traceyears": func(c *Config) { c.TraceYears = c.TraceYears[1:] },
	"simyear":    func(c *Config) { c.SimYear = 2019 },
	"policy":     func(c *Config) { c.Policy = sched.ConservativeBackfill },
	"rake":       func(c *Config) { c.Rake = !c.Rake },
	"paneln":     func(c *Config) { c.PanelN += 7 },
	"noiserate":  func(c *Config) { c.NoiseRate += 0.01 },
	"tracescale": func(c *Config) { c.TraceScale = 3 },
}

// TestRenderDeclarationsCoverReads pins every registry declaration: each
// experiment renders the bytes of the full run, in every format, from
// Artifacts that hold only its declared stages' outputs (declaredOnly)
// and whose Config has every field it does not declare perturbed. A
// missing declaration would let a render cache serve another run's
// bytes under a shared render key.
func TestRenderDeclarationsCoverReads(t *testing.T) {
	for _, f := range configFields {
		if perturbations[f.name] == nil {
			t.Fatalf("no perturbation for config field %q", f.name)
		}
	}
	cfg := smallConfig()
	cfg.NoiseRate = 0.05
	cfg.SimYear = 2011 // the smallest month keeps the sims cheap
	cache := newMapStageCache()
	full := runCached(t, cfg, cache)
	for _, e := range registry {
		want := renderFormats(full, e)
		if _, failed := want["error"]; failed {
			t.Fatalf("%s: full render failed: %s", e.ID, want["error"])
		}
		a := declaredOnly(t, cfg, cache, e)
		a.Config.TraceYears = slices.Clone(cfg.TraceYears)
		for _, f := range configFields {
			if !slices.Contains(e.config, f.name) {
				perturbations[f.name](&a.Config)
			}
		}
		if format, same := sameRenders(want, renderFormats(a, e)); !same {
			t.Errorf("%s renders differently (%s) from its declared stages %v and config %v: it reads something undeclared",
				e.ID, format, e.reads, e.config)
		}
	}
}

// TestEqualRenderKeysMeanEqualBytes changes each config field alone and
// requires every pair of runs that gives an experiment the same render
// key to render it identically. It also pins which experiments each
// change re-renders — the matrix in DESIGN.md "Incremental
// recomputation".
func TestEqualRenderKeysMeanEqualBytes(t *testing.T) {
	base := smallConfig()
	base.N2011, base.N2024, base.PanelN, base.NoiseRate = 40, 60, 30, 0.05
	base.SimYear = 2011 // the smallest month keeps the sims cheap
	variants := []struct {
		field   string
		mutate  func(*Config)
		renders string // the experiments whose keys change, in registry order
	}{
		{"seed", func(c *Config) { c.Seed++ }, "all"},
		{"n2011", func(c *Config) { c.N2011++ }, "T1 T2 T3 T4 T7 T9 T12 T13 T16"},
		{"n2024", func(c *Config) { c.N2024++ }, "T1 T2 T3 T4 T6 T7 F6 F8 T9 T12 T13 T16"},
		{"paneln", func(c *Config) { c.PanelN++ }, "T11 F11"},
		{"noiserate", func(c *Config) { c.NoiseRate += 1e-4 }, "T1 T2 T3 T4 T6 T7 F6 F8 T9 T12 T13"},
		{"policy", func(c *Config) { c.Policy = sched.FCFS }, "F4 F5 T8 F10 F13"},
		{"simyear", func(c *Config) { c.SimYear = 2015 }, "T7 F3 F4 F5 F7 T8 T10 F10 F12 F13"},
		{"rake", func(c *Config) { c.Rake = false }, "T1 T2 T3 T4 T6 T7 F6 F8 T9 T12 T13"},
		{"traceyears", func(c *Config) { c.TraceYears = []int{2011, 2013, 2015, 2019, 2024} }, "T5 T7 F1 F2 F3 F7 T10 F9 T14 T15 F12"},
		{"tracescale", func(c *Config) { c.TraceScale = 2 }, "T5 F2 F3 F4 F5 F7 T8 F10 T15 F12 F13"},
	}
	cfgs := []Config{base}
	for _, v := range variants {
		c := base
		c.TraceYears = slices.Clone(base.TraceYears)
		v.mutate(&c)
		cfgs = append(cfgs, c)
	}
	cache := newMapStageCache()
	keys := make([]map[string]string, len(cfgs))
	renders := make([]map[string]map[string][]byte, len(cfgs))
	for i, c := range cfgs {
		var err error
		if keys[i], err = RenderKeys(c); err != nil {
			t.Fatal(err)
		}
		a := runCached(t, c, cache)
		renders[i] = map[string]map[string][]byte{}
		for _, e := range registry {
			renders[i][e.ID] = renderFormats(a, e)
		}
	}
	for vi, v := range variants {
		var changed []string
		for _, e := range registry {
			if keys[0][e.ID] != keys[vi+1][e.ID] {
				changed = append(changed, e.ID)
			}
		}
		got := strings.Join(changed, " ")
		if len(changed) == len(registry) {
			got = "all"
		}
		if got != v.renders {
			t.Errorf("changing %s re-renders %s, want %s", v.field, got, v.renders)
		}
	}
	pairs := 0
	for _, e := range registry {
		for i := range cfgs {
			for j := i + 1; j < len(cfgs); j++ {
				if keys[i][e.ID] != keys[j][e.ID] {
					continue
				}
				pairs++
				if format, same := sameRenders(renders[i][e.ID], renders[j][e.ID]); !same {
					t.Errorf("%s: configs %d and %d share render key %.12s but differ in %s", e.ID, i, j, keys[i][e.ID], format)
				}
			}
		}
	}
	t.Logf("%d equal-key pairs over %d configs", pairs, len(cfgs))
}

// TestRenderKeysGolden pins every render key to a value for the two
// configs of stagekeys.golden: a silent key change orphans every body a
// -cache-dir holds.
func TestRenderKeysGolden(t *testing.T) {
	variant := DefaultConfig()
	variant.Rake = false
	variant.PanelN = 0
	variant.TraceScale = 2
	variant.Policy = sched.FCFS

	var b strings.Builder
	for _, c := range []struct {
		name string
		cfg  Config
	}{{"default", DefaultConfig()}, {"variant", variant}} {
		keys, err := RenderKeys(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range registry {
			fmt.Fprintf(&b, "%s %s %s\n", c.name, e.ID, keys[e.ID])
		}
	}
	path := filepath.Join("testdata", "renderkeys.golden")
	if *updateKeys {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s (run `go test ./internal/core -run KeysGolden -update`): %v", path, err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("render keys differ from %s:\ngot:\n%swant:\n%s", path, got, want)
	}
}

// TestRenderKeysIgnoreExecutionKnobs: Workers never reaches a render
// key, as it never reaches a fingerprint.
func TestRenderKeysIgnoreExecutionKnobs(t *testing.T) {
	a, err := RenderKeys(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	knobs := smallConfig()
	knobs.Workers = 3
	b, err := RenderKeys(knobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range registry {
		if a[e.ID] != b[e.ID] {
			t.Errorf("%s: render key changes with execution knobs", e.ID)
		}
	}
}
