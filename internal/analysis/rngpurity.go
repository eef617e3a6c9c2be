package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
)

// pipelinePackages are the deterministic pipeline packages: everything a
// study run's artifacts are computed from. Inside them, all randomness
// must come from internal/rng streams and all "now"-like inputs must be
// injected through configuration, or a run stops being a pure function
// of its seed.
var pipelinePackages = map[string]bool{
	"core":       true,
	"sched":      true,
	"trace":      true,
	"population": true,
	"survey":     true,
	"weighting":  true,
	"trend":      true,
	"growth":     true,
	"modlog":     true,
	"stats":      true,
	// table is artifact storage: its scans and codecs must not depend
	// on ambient state, or artifact bytes stop being a pure function of
	// the seed.
	"table": true,
	// cluster executes pipeline stages on behalf of peers: any ambient
	// time or env read there would make remotely computed bytes diverge
	// from local ones. Breakers and membership take their clock from
	// the Cluster's injected now instead.
	"cluster": true,
	// stagecache stores stage outputs that flow straight back into
	// artifacts: its storage decisions (eviction, spill, verification)
	// must never consult ambient time, env, or randomness, or a restored
	// run stops being a pure function of its seed.
	"stagecache": true,
}

// pipelinePaths extends the scope to packages matched by import path
// rather than name — command-line tools whose output feeds recorded
// artifacts. cmd/rcpt-bench parses `go test -bench` output into the
// benchmark JSON that scripts/bench.sh commits, so its bytes must be a
// pure function of its input stream too.
var pipelinePaths = map[string]bool{
	"repro/cmd/rcpt-bench": true,
}

// forbiddenCalls maps package import path -> function names whose call
// sites smuggle ambient nondeterminism into a pipeline package.
var forbiddenCalls = map[string]map[string]bool{
	"time": {"Now": true},
	"os":   {"Getenv": true, "LookupEnv": true, "Environ": true, "ExpandEnv": true},
}

// RNGPurity forbids ambient nondeterminism inside the deterministic
// pipeline packages: importing math/rand (v1 or v2), and calling
// time.Now or reading the environment. Only internal/rng streams, split
// by name before fan-out, are legal randomness sources there.
var RNGPurity = &Analyzer{
	Name: "rngpurity",
	Doc:  "pipeline packages must draw randomness only from internal/rng and take time/env via config",
	Run:  runRNGPurity,
}

func runRNGPurity(pass *Pass) error {
	if pass.Pkg == nil {
		return nil
	}
	if !pipelinePackages[pass.Pkg.Name()] && !pipelinePaths[pass.Pkg.Path()] {
		return nil
	}
	label := pass.Pkg.Name()
	if pipelinePaths[pass.Pkg.Path()] {
		label = pass.Pkg.Path()
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(),
					"deterministic pipeline package %q imports %s; use internal/rng streams instead", label, path)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.Info.Uses[id].(*types.PkgName)
			if !ok {
				return true
			}
			if names := forbiddenCalls[pkgName.Imported().Path()]; names[sel.Sel.Name] {
				pass.Reportf(call.Pos(),
					"call to %s.%s in deterministic pipeline package %q; inject the value through config so runs stay a pure function of the seed",
					pkgName.Imported().Path(), sel.Sel.Name, label)
			}
			return true
		})
	}
	return nil
}
