// Package rcpt is the public API of the "Revisiting Computation for
// Research: Practices and Trends" study apparatus: a survey engine, a
// synthetic-respondent population model, post-stratification weighting,
// cluster accounting and module-load telemetry generators, a
// discrete-event scheduler simulator, and a registry of experiments that
// regenerate every table and figure of the reconstructed evaluation.
//
// Quick start:
//
//	arts, err := rcpt.Run(rcpt.DefaultConfig())
//	if err != nil { ... }
//	for _, e := range rcpt.Experiments() {
//	    ... render e against arts ...
//	}
//
// or simply rcpt.WriteAll(arts, "out") to materialize everything.
package rcpt

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/report"
	"repro/internal/sched"
)

// Config parameterizes a study run. See DefaultConfig for the standard
// setup.
type Config = core.Config

// Artifacts is the output of a full study run: both survey cohorts
// (raked), the multi-year cluster trace, module-load telemetry
// aggregates, and the scheduler-simulation results.
type Artifacts = core.Artifacts

// Experiment is one reproducible table or figure.
type Experiment = core.Experiment

// Experiment kinds.
const (
	KindTable  = core.KindTable
	KindFigure = core.KindFigure
)

// Scheduler policies for Config.Policy.
const (
	FCFS         = sched.FCFS
	EASYBackfill = sched.EASYBackfill
)

// DefaultConfig returns the standard study configuration.
func DefaultConfig() Config { return core.DefaultConfig() }

// Run executes the full study pipeline deterministically in cfg.Seed.
// Independent stages run concurrently on cfg.Workers goroutines; the
// artifacts are byte-identical for any worker count.
func Run(cfg Config) (*Artifacts, error) { return core.Run(cfg) }

// RunSequential executes the same stage graph as Run on a single
// worker, one stage at a time. It exists as the determinism reference:
// its artifacts are byte-identical to Run's.
func RunSequential(cfg Config) (*Artifacts, error) { return core.RunSequential(cfg) }

// Experiments returns the registry of tables and figures in
// presentation order.
func Experiments() []Experiment { return core.Registry() }

// Lookup resolves experiment IDs: tables T1–T16 and figures F1–F13.
func Lookup(id string) (Experiment, error) { return core.Lookup(id) }

// WriteAll renders every experiment into dir: tables as .txt (ASCII) and
// .csv, figures as .svg, plus an index.html over everything. It creates
// dir if needed and returns the list of files written.
func WriteAll(a *Artifacts, dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("rcpt: creating %s: %w", dir, err)
	}
	var files []string
	var index []report.IndexEntry
	write := func(name string, render func(w io.Writer) error) error {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("rcpt: creating %s: %w", path, err)
		}
		if err := render(f); err != nil {
			f.Close()
			return fmt.Errorf("rcpt: rendering %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("rcpt: closing %s: %w", path, err)
		}
		files = append(files, path)
		return nil
	}
	for _, e := range Experiments() {
		switch e.Kind {
		case KindTable:
			tab, err := e.Table(a)
			if err != nil {
				return nil, fmt.Errorf("rcpt: experiment %s: %w", e.ID, err)
			}
			if err := write(e.Filename()+".txt", tab.WriteASCII); err != nil {
				return nil, err
			}
			if err := write(e.Filename()+".csv", tab.WriteCSV); err != nil {
				return nil, err
			}
			var txt strings.Builder
			if err := tab.WriteASCII(&txt); err != nil {
				return nil, err
			}
			index = append(index, report.IndexEntry{
				ID: e.ID, Title: e.Title, Kind: "table", TableText: txt.String(),
			})
		case KindFigure:
			e := e
			if err := write(e.Filename()+".svg", func(w io.Writer) error {
				return e.Figure(a, w)
			}); err != nil {
				return nil, err
			}
			index = append(index, report.IndexEntry{
				ID: e.ID, Title: e.Title, Kind: "figure", SVGFile: e.Filename() + ".svg",
			})
		}
	}
	if err := write("index.html", func(w io.Writer) error {
		return report.WriteHTMLIndex(w, "rcpt — Revisiting Computation for Research", index)
	}); err != nil {
		return nil, err
	}
	// REPORT.md: every table in one Markdown document, for pasting into
	// issues and papers.
	if err := write("REPORT.md", func(w io.Writer) error {
		if _, err := io.WriteString(w, "# rcpt study report\n\n"); err != nil {
			return err
		}
		for _, e := range Experiments() {
			if e.Kind != KindTable {
				continue
			}
			tab, err := e.Table(a)
			if err != nil {
				return err
			}
			if err := tab.WriteMarkdown(w); err != nil {
				return err
			}
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return files, nil
}
