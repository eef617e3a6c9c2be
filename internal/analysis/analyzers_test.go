package analysis_test

import (
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/analysistest"
)

// Each analyzer is exercised against a fixture package holding `// want`
// annotated true positives alongside negative cases that must stay
// clean; analysistest fails on both missed and unexpected findings.

func TestMapOrder(t *testing.T) {
	analysistest.Run(t, analysis.MapOrder, "testdata/src/maporder")
}

func TestRNGPurity(t *testing.T) {
	analysistest.Run(t, analysis.RNGPurity,
		"testdata/src/rngpurity/core", "testdata/src/rngpurity/render",
		"testdata/src/rngpurity/cluster")
}

func TestSplitShare(t *testing.T) {
	analysistest.Run(t, analysis.SplitShare, "testdata/src/splitshare")
}

func TestPanicSafe(t *testing.T) {
	analysistest.Run(t, analysis.PanicSafe,
		"testdata/src/panicsafe/serve", "testdata/src/panicsafe/other",
		"testdata/src/panicsafe/cluster")
}

func TestFloatFold(t *testing.T) {
	analysistest.Run(t, analysis.FloatFold, "testdata/src/floatfold")
}

func TestNondetFlow(t *testing.T) {
	analysistest.Run(t, analysis.NondetFlow, "testdata/src/nondetflow")
}

func TestCtxProp(t *testing.T) {
	analysistest.Run(t, analysis.CtxProp, "testdata/src/ctxprop")
}

func TestShardPure(t *testing.T) {
	analysistest.Run(t, analysis.ShardPure, "testdata/src/shardpure")
}

func TestErrDrop(t *testing.T) {
	analysistest.Run(t, analysis.ErrDrop,
		"testdata/src/errdrop/report", "testdata/src/errdrop/other",
		"testdata/src/errdrop/serve", "testdata/src/errdrop/cluster")
}

// TestSuppression drives //rcpt:allow handling end to end: annotated
// lines are silenced (same line and line-above forms), unannotated ones
// still report.
func TestSuppression(t *testing.T) {
	analysistest.Run(t, analysis.MapOrder, "testdata/src/suppress")
}

// TestStaleAllow audits //rcpt:allow directives end to end: a live
// directive (suppressing a real finding) is not reported, a directive
// covering nothing is stale, and a typoed analyzer name is called out.
func TestStaleAllow(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := loader.Load("testdata/src/stalecheck")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	suite, err := analysis.RunSuite(pkgs, analysis.All(), loader.Loaded()...)
	if err != nil {
		t.Fatalf("RunSuite: %v", err)
	}
	if len(suite.Findings) != 0 {
		t.Errorf("unexpected findings: %v", suite.Findings)
	}
	if len(suite.Stale) != 2 {
		t.Fatalf("got %d stale findings, want 2: %v", len(suite.Stale), suite.Stale)
	}
	for _, f := range suite.Stale {
		if f.Analyzer != "staleallow" {
			t.Errorf("stale finding analyzer = %q, want staleallow", f.Analyzer)
		}
	}
	if got := suite.Stale[0].Message; !strings.Contains(got, "stale //rcpt:allow maporder") {
		t.Errorf("first stale message = %q, want the stale-directive form", got)
	}
	if got := suite.Stale[1].Message; !strings.Contains(got, `unknown analyzer "nosuchanalyzer"`) {
		t.Errorf("second stale message = %q, want the unknown-analyzer form", got)
	}
}
