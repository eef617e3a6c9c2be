package analysis

import (
	"go/ast"
	"go/types"
)

// writerCloserMethods are the method names whose discarded error loses
// written data or masks a failed flush: the classic `defer f.Close()` on
// a file being written.
var writerCloserMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"WriteTo":     true,
	"ReadFrom":    true,
	"Close":       true,
	"Flush":       true,
	"Sync":        true,
	// json.Encoder.Encode and similar: in an HTTP handler a failed
	// Encode means a truncated response body went out with a 200.
	"Encode": true,
}

// writerCloserFuncs are package-level functions with the same failure
// mode, keyed by import path then name.
var writerCloserFuncs = map[string]map[string]bool{
	"io": {"WriteString": true, "Copy": true},
	"os": {"WriteFile": true},
}

// errdropScopePackages limits the analyzer to where dropped write errors
// corrupt study artifacts: the report renderers, the HTTP serving layer
// (a dropped ResponseWriter or encoder error ships a truncated body with
// a success status), the cluster peer protocol (a dropped write on a
// peer response ships a truncated stage table — caught by the stream
// checksum, but as a spurious integrity failure instead of the real
// cause), and the CLI binaries (package main covers cmd/* and
// examples/*).
var errdropScopePackages = map[string]bool{
	"report":  true,
	"serve":   true,
	"cluster": true,
	"main":    true,
	// stagecache persists stage payloads crash-safely: a dropped write,
	// sync, or close error there would let a torn entry masquerade as a
	// durable one until checksum verification catches it much later.
	"stagecache": true,
	// durable is the write protocol under stagecache and the render
	// cache; the same torn-entry argument applies to every call it makes.
	"durable": true,
}

// ErrDrop flags statements (including defers) that silently discard the
// error from a writer or closer in internal/report or a main package.
// Writes to error-free sinks (strings.Builder, bytes.Buffer) are exempt,
// and an explicit `_ = f.Close()` counts as a deliberate, visible
// discard so it is not flagged.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "report renderers and CLIs must not silently drop writer/closer errors",
	Run:  runErrDrop,
}

func runErrDrop(pass *Pass) error {
	if pass.Pkg == nil || !errdropScopePackages[pass.Pkg.Name()] {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			var call *ast.CallExpr
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, _ = n.X.(*ast.CallExpr)
			case *ast.DeferStmt:
				call = n.Call
			case *ast.GoStmt:
				call = n.Call
			}
			if call == nil {
				return true
			}
			if name, ok := droppedWriterError(pass, call); ok {
				pass.Reportf(call.Pos(),
					"error from %s is discarded; handle it, or write `_ = ...`/`//rcpt:allow errdrop` to discard deliberately", name)
			}
			return true
		})
	}
	return nil
}

// droppedWriterError reports whether call is a writer/closer call whose
// last result is an error, returning a human-readable callee name.
func droppedWriterError(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	sig, ok := pass.Info.TypeOf(call.Fun).(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return "", false
	}
	if !isErrorType(sig.Results().At(sig.Results().Len() - 1).Type()) {
		return "", false
	}
	// Package-level functions: io.WriteString, os.WriteFile, ...
	if id, ok := sel.X.(*ast.Ident); ok {
		if pkgName, ok := pass.Info.Uses[id].(*types.PkgName); ok {
			path := pkgName.Imported().Path()
			if writerCloserFuncs[path][sel.Sel.Name] {
				return path + "." + sel.Sel.Name, true
			}
			return "", false
		}
	}
	// Methods on a writer/closer value.
	if !writerCloserMethods[sel.Sel.Name] {
		return "", false
	}
	recv := pass.Info.TypeOf(sel.X)
	if recv == nil || neverFailsWriter(recv) {
		return "", false
	}
	return types.TypeString(recv, types.RelativeTo(pass.Pkg)) + "." + sel.Sel.Name, true
}

// neverFailsWriter reports whether t is a sink whose write methods are
// documented to always return a nil error.
func neverFailsWriter(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() + "." + obj.Name() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}
