package rcpt

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// testOnlyExports lists the exported internal declarations that no
// non-test file references but that stay on purpose, each with the test
// or fixture that uses it.
var testOnlyExports = map[string]string{
	"repro/internal/analysis.Run":               "TestJSONGolden and TestSARIFGolden run the suite through it",
	"repro/internal/analysis/analysistest.Run":  "the analyzer fixture tests in internal/analysis/analyzers_test.go",
	"repro/internal/modlog.CoLoads":             "TestCoLoadsTableMatchesSliceAcrossShards compares CoLoadsTable against it",
	"repro/internal/modlog.Write":               "TestWriteParseRoundTrip",
	"repro/internal/modlog.Parse":               "TestWriteParseRoundTrip and TestParseFailureInjection",
	"repro/internal/parallel.MapChunks":         "the floatfold analyzer fixture (testdata/src/floatfold)",
	"repro/internal/parallel.NewPool":           "the floatfold analyzer fixture (testdata/src/floatfold)",
	"repro/internal/table.EncodeStream":         "the column codecs' round trips and TestStreamEncodingInvariantToStorage compare tables by it; payloads frame the same bytes with AppendBlock",
	"repro/internal/table.NewSlice":             "TestSliceScannerShards and TestStreamEncodingInvariantToStorage run the Slice storage through the Table contract",
	"repro/internal/table.Rows":                 "core's equivalence suite and FuzzDecodeStream read tables back through it",
	"repro/internal/trace.WriteAccountingTable": "TestWriteAccountingTableBytes and cluster's TestClusterRunEquivalence",
	"repro/internal/trace.UserUsage":            "TestUserUsageTableMatchesSlice uses it as the reference",
}

// TestInternalExportsAreReferenced keeps the tree pruned: every exported
// package-level func, type, var and const under internal/ must be
// referenced by some non-test file of the module or of the bench/ module
// outside its own declaration and methods. A declaration only tests
// reach is deleted with its tests, or listed in testOnlyExports with the
// test that keeps it.
func TestInternalExportsAreReferenced(t *testing.T) {
	loader, err := analysis.NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	// "./..." also walks into bench/, whose go.mod replaces repro with
	// this directory, so the loader type-checks it as part of the module.
	pkgs, err := loader.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	type span struct{ pos, end token.Pos }
	own := map[types.Object][]span{} // candidate → its declaration and methods
	for _, pkg := range pkgs {
		if len(pkg.TypeErrors) > 0 {
			t.Fatalf("%s: %v", pkg.PkgPath, pkg.TypeErrors[0])
		}
		if !strings.HasPrefix(pkg.PkgPath, loader.ModulePath+"/internal/") {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						if obj := pkg.Info.Defs[d.Name]; obj.Exported() {
							own[obj] = append(own[obj], span{d.Pos(), d.End()})
						}
						continue
					}
					if recv := receiverType(pkg.Info, d); recv != nil && recv.Exported() {
						own[recv] = append(own[recv], span{d.Pos(), d.End()})
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							if obj := pkg.Info.Defs[s.Name]; obj.Exported() {
								own[obj] = append(own[obj], span{s.Pos(), s.End()})
							}
						case *ast.ValueSpec:
							for _, name := range s.Names {
								if obj := pkg.Info.Defs[name]; obj != nil && obj.Exported() {
									own[obj] = append(own[obj], span{s.Pos(), s.End()})
								}
							}
						}
					}
				}
			}
		}
	}
	referenced := map[types.Object]bool{}
	for _, pkg := range loader.Loaded() {
		for id, obj := range pkg.Info.Uses {
			spans, ok := own[obj]
			if !ok || referenced[obj] {
				continue
			}
			inside := false
			for _, s := range spans {
				if s.pos <= id.Pos() && id.Pos() < s.end {
					inside = true
					break
				}
			}
			if !inside {
				referenced[obj] = true
			}
		}
	}
	var problems []string
	listed := map[string]bool{}
	for obj := range own {
		name := obj.Pkg().Path() + "." + obj.Name()
		_, allowed := testOnlyExports[name]
		listed[name] = allowed
		switch {
		case referenced[obj] && allowed:
			problems = append(problems, name+" is listed in testOnlyExports but non-test code references it")
		case !referenced[obj] && !allowed:
			problems = append(problems, loader.Fset.Position(obj.Pos()).String()+": "+name+
				": no non-test code references it; delete it or list it in testOnlyExports")
		}
	}
	for name := range testOnlyExports {
		if !listed[name] {
			problems = append(problems, "testOnlyExports lists "+name+", which is not an exported internal declaration")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}

// receiverType returns the named type a method is declared on.
func receiverType(info *types.Info, d *ast.FuncDecl) types.Object {
	fn, ok := info.Defs[d.Name].(*types.Func)
	if !ok {
		return nil
	}
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj()
	}
	return nil
}
