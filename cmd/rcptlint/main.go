// rcptlint enforces the pipeline's reproducibility contract with the
// analyzer suite in internal/analysis: the syntactic rules (maporder,
// rngpurity, errdrop, panicsafe) and the interprocedural dataflow rules
// (nondetflow, ctxprop, splitshare, floatfold) built on the
// call-graph engine in internal/analysis/flow. It loads and type-checks
// packages with the module-aware loader (no go tool invocation, std-lib
// only) and prints findings as "file:line: [analyzer] message".
//
// Usage:
//
//	rcptlint [-json] [-sarif] [-strict] [-timing] [-budget seconds] [-list] [packages...]
//
// Package patterns ("./...", "./internal/core", ...) resolve relative to
// the working directory; the default is "./...". Exit status: 0 clean,
// 1 findings (or a -strict/-budget failure), 2 load or type-check
// failure. Suppress a single finding with an inline "//rcpt:allow
// <analyzer>" comment on (or directly above) the flagged line; under
// -strict, a directive that suppresses nothing is itself a finding.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run())
}

func run() int {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	sarifOut := flag.Bool("sarif", false, "emit findings as SARIF 2.1.0 (code-scanning upload)")
	strict := flag.Bool("strict", false, "treat stale //rcpt:allow directives as findings")
	timing := flag.Bool("timing", false, "print per-analyzer wall times to stderr")
	budget := flag.Float64("budget", 0, "fail if total analysis wall time exceeds this many seconds")
	list := flag.Bool("list", false, "list the analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-11s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(os.Stderr, "rcptlint: -json and -sarif are mutually exclusive")
		return 2
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "rcptlint:", err)
		return 2
	}
	loader, err := analysis.NewLoader(wd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rcptlint:", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rcptlint:", err)
		return 2
	}

	// A package that does not type-check cannot be analyzed reliably;
	// report the diagnostics gracefully and fail hard.
	broken := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "rcptlint: typecheck %s: %v\n", pkg.PkgPath, terr)
			broken = true
		}
	}
	if broken {
		return 2
	}

	// Loaded() adds the module-internal dependencies of the requested
	// patterns to the dataflow engine, so interprocedural summaries are
	// identical whether you lint ./... or a single package.
	suite, err := analysis.RunSuite(pkgs, analysis.All(), loader.Loaded()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rcptlint:", err)
		return 2
	}
	findings := suite.Findings
	if *strict {
		findings = append(findings, suite.Stale...)
	}

	var total float64
	for _, tm := range suite.Timings {
		total += tm.Seconds
		if *timing {
			fmt.Fprintf(os.Stderr, "rcptlint: timing %-11s %7.3fs\n", tm.Analyzer, tm.Seconds)
		}
	}
	if *timing {
		fmt.Fprintf(os.Stderr, "rcptlint: timing %-11s %7.3fs\n", "total", total)
	}

	switch {
	case *jsonOut:
		if err := analysis.WriteJSON(os.Stdout, findings, wd); err != nil {
			fmt.Fprintln(os.Stderr, "rcptlint:", err)
			return 2
		}
	case *sarifOut:
		if err := analysis.WriteSARIF(os.Stdout, findings, analysis.All(), wd); err != nil {
			fmt.Fprintln(os.Stderr, "rcptlint:", err)
			return 2
		}
	default:
		for _, f := range findings {
			rel := f
			if r, err := filepath.Rel(wd, f.Pos.Filename); err == nil {
				rel.Pos.Filename = r
			}
			fmt.Println(rel.String())
		}
	}

	status := 0
	if len(findings) > 0 {
		if !*jsonOut && !*sarifOut {
			fmt.Fprintf(os.Stderr, "rcptlint: %d finding(s)\n", len(findings))
		}
		status = 1
	}
	if *budget > 0 && total > *budget {
		fmt.Fprintf(os.Stderr, "rcptlint: analysis took %.3fs, over the %.3fs budget\n", total, *budget)
		status = 1
	}
	return status
}
