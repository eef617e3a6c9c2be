package analysis

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/analysis/flow"
)

// NondetFlow is the interprocedural taint analyzer: it tracks values
// minted by ambient-nondeterminism sources (wall clock, environment,
// global rand, runtime introspection, pointer-address formatting, map
// iteration order) through assignments, struct fields, and function
// calls, and reports when one reaches an artifact-byte sink — a table
// codec writer, a report table or chart, or a hash/fingerprint input.
// Unlike rngpurity (which bans source calls outright inside pipeline
// packages), nondetflow follows the value: a timestamp captured in a
// cmd package and carried two calls deep into Config.Fingerprint is
// reported at the sink it poisons.
var NondetFlow = &Analyzer{
	Name: "nondetflow",
	Doc:  "nondeterministic values must not flow into artifact bytes (tables, reports, hashes)",
	Run:  runNondetFlow,
}

var nondetSpec = &flow.TaintSpec{
	Name:      "nondet",
	IsSource:  nondetSource,
	SinkArgs:  artifactSink,
	Sanitizes: workerCountSanitizer,
}

// workerCountSanitizer declares parallel.Map's worker count sanitized:
// its results land by index, not completion order, so they are
// identical for any worker count, and a machine-dependent width
// (parallel.Workers, i.e. GOMAXPROCS) does not make the output
// machine-dependent.
func workerCountSanitizer(fn *types.Func) uint64 {
	if path, name := flow.PathAndName(fn); strings.HasSuffix(path, "internal/parallel") && name == "Map" {
		return 1 << 0 // workers
	}
	return 0
}

// nondetSourceFuncs maps package path -> function name -> description
// for plain source identities.
var nondetSourceFuncs = map[string]map[string]string{
	"time": {
		"Now":   "time.Now",
		"Since": "time.Since",
		"Until": "time.Until",
	},
	"os": {
		"Getenv":    "os.Getenv",
		"LookupEnv": "os.LookupEnv",
		"Environ":   "os.Environ",
		"ExpandEnv": "os.ExpandEnv",
		"Hostname":  "os.Hostname",
		"Getpid":    "os.Getpid",
		"Getwd":     "os.Getwd",
		"TempDir":   "os.TempDir",
	},
	"runtime": {
		"NumGoroutine": "runtime.NumGoroutine",
		"NumCPU":       "runtime.NumCPU",
		"GOMAXPROCS":   "runtime.GOMAXPROCS",
	},
}

// globalRandDraws are the package-level math/rand(/v2) functions that
// actually draw from the process-global source.
var globalRandDraws = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int64": true, "Int64N": true,
	"IntN": true, "Uint32": true, "Uint64": true, "Uint64N": true,
	"UintN": true, "Uint": true, "Float32": true, "Float64": true,
	"ExpFloat64": true, "NormFloat64": true, "Perm": true,
	"Shuffle": true, "Read": true, "N": true,
}

// hashSinkPaths are packages whose inputs become artifact fingerprints.
var hashSinkPaths = map[string]bool{
	"hash":          true, // hash.Hash.Write via interface dispatch
	"hash/fnv":      true,
	"hash/maphash":  true,
	"hash/crc32":    true,
	"hash/crc64":    true,
	"hash/adler32":  true,
	"crypto/sha256": true,
	"crypto/sha1":   true,
	"crypto/md5":    true,
}

// nondetSource classifies a callee (with its call expression, for
// call-shape sources) as a nondeterminism source.
func nondetSource(fn *types.Func, call *ast.CallExpr) (string, bool) {
	path, name := flow.PathAndName(fn)
	if descs := nondetSourceFuncs[path]; descs != nil {
		if d, ok := descs[name]; ok {
			return d, true
		}
	}
	// Package-level math/rand draw functions use the shared global
	// source; *rand.Rand methods are assumed deliberately seeded (and
	// are rngpurity's business inside pipeline packages anyway), and
	// constructors like rand.New/NewSource mint nothing themselves.
	if (path == "math/rand" || path == "math/rand/v2") &&
		recvName(fn) == "" && globalRandDraws[name] {
		return path + "." + name + " (global rand)", true
	}
	// Formatting a pointer renders the allocation address.
	if path == "fmt" && strings.HasSuffix(name, "f") && formatHasPointerVerb(call) {
		return "fmt." + name + " %p (pointer address)", true
	}
	return "", false
}

// formatHasPointerVerb reports whether any constant string argument of
// the call contains a %p verb.
func formatHasPointerVerb(call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		lit, ok := ast.Unparen(arg).(*ast.BasicLit)
		if !ok || lit.Kind.String() != "STRING" {
			continue
		}
		if strings.Contains(lit.Value, "%p") || strings.Contains(lit.Value, "%#p") {
			return true
		}
	}
	return false
}

// artifactSink classifies calls whose arguments become artifact bytes.
func artifactSink(fn *types.Func, call *ast.CallExpr, info *types.Info) (string, []ast.Expr, bool) {
	path, name := flow.PathAndName(fn)
	recv := recvName(fn)
	switch {
	case hashSinkPaths[path]:
		label := path
		if i := strings.LastIndex(path, "/"); i >= 0 {
			label = path[i+1:]
		}
		if recv != "" {
			return "hash input " + label + "." + recv + "." + name, nil, true
		}
		return "hash input " + label + "." + name, nil, true
	case strings.HasSuffix(path, "internal/table"):
		switch {
		case recv == "Writer":
			switch name {
			case "Raw", "Uvarint", "Varint", "Float64", "String":
				return "table.Writer." + name, nil, true
			}
		case recv == "" && (name == "FromSlice" || name == "Build"):
			return "table." + name, nil, true
		}
	case strings.HasSuffix(path, "internal/report"):
		if !ast.IsExported(name) {
			return "", nil, false
		}
		if recv != "" {
			return "report." + recv + "." + name, nil, true
		}
		return "report." + name, nil, true
	}
	return "", nil, false
}

// recvName returns the bare receiver type name of a method, or "".
func recvName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

func runNondetFlow(pass *Pass) error {
	if pass.Flow == nil {
		return nil
	}
	for _, fl := range pass.Flow.Taint(nondetSpec) {
		if fl.Fn.Pkg() != pass.Pkg {
			continue
		}
		src := fl.Source.Desc
		if fl.Source.Pos.IsValid() {
			p := pass.Fset.Position(fl.Source.Pos)
			src += " (" + filepath.Base(p.Filename) + ":" + strconv.Itoa(p.Line) + ")"
		}
		pass.Reportf(fl.Pos,
			"nondeterministic value from %s reaches %s; artifact bytes must be a pure function of config and seed",
			src, fl.SinkDesc)
	}
	return nil
}
