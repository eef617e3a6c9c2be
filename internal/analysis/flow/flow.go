// Package flow is the interprocedural dataflow engine under rcptlint's
// call-graph-aware analyzers (nondetflow, ctxprop, shardpure, and the
// summary-driven rewrites of floatfold and splitshare). It is std-lib
// only — go/ast + go/types over packages loaded by the module-aware
// loader in internal/analysis — and computes three artifacts:
//
//   - per-function control-flow graphs (cfg.go), used where statement
//     order matters (locks held across calls);
//   - a static call graph (callgraph.go) with direct calls resolved
//     through go/types and interface dispatch resolved by
//     implementing-type sets over every loaded package;
//   - bottom-up function summaries (summary.go) over the call graph's
//     strongly-connected components: taint transfer (which
//     parameters/results carry nondeterminism), blocking behaviour
//     (channel ops, locks held across calls, sleeps, network I/O), and
//     closure-parameter dispatch (which func-typed parameters a callee
//     invokes, and whether concurrently).
//
// Summaries are cached per package inside the Engine, so the engine is
// built once per rcptlint invocation and shared by every analyzer in
// the suite; re-running an analyzer never recomputes a summary. The
// lattice is a finite bitmask per value (parameter bits plus a source
// bit and a map-order bit), so every fixpoint terminates.
//
// Soundness limits (documented, deliberate): calls through func-typed
// variables that the engine cannot resolve propagate the union of
// their argument taints to their results but contribute no call edge;
// goto is modelled as an edge to function exit; reflection and unsafe
// are not modelled. These make the engine under-approximate
// reachability and over-approximate taint, which is the right polarity
// for a lint gate: missed edges can hide a violation but never invent
// one.
package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// PackageUnit is one loaded, type-checked package handed to Build. It
// mirrors the loader's view without importing it, keeping the
// dependency direction analysis -> flow.
type PackageUnit struct {
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// FuncInfo is everything the engine knows about one function with a
// body in the loaded set.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Unit *PackageUnit

	cfg     *CFG       // built lazily by Engine.CFG
	calls   []CallSite // populated by buildCallGraph
	summary *Summary   // populated by Engine.summarize
}

// CallSite is one call expression inside a function, with the callee
// set the engine resolved for it.
type CallSite struct {
	Call *ast.CallExpr
	// Callees holds every resolved target with a body in the loaded
	// set: one entry for a direct call, the implementing-type set for
	// an interface dispatch.
	Callees []*types.Func
	// Dynamic marks a call through a func value (or an external
	// function) the engine has no body for.
	Dynamic bool
}

// Engine is the shared dataflow state for one loaded package set.
type Engine struct {
	Fset  *token.FileSet
	Units []PackageUnit

	funcs map[*types.Func]*FuncInfo
	// order lists every known function in deterministic (position)
	// order, so analyzer output never depends on map iteration.
	order []*types.Func
	// implCache memoizes interface-method -> implementing concrete
	// methods resolution.
	implCache map[*types.Func][]*types.Func
	// namedTypes is every named type declared in the loaded packages,
	// the candidate set for interface dispatch.
	namedTypes []*types.Named

	summarized bool
	// taints memoizes taint analyses by spec name (the per-package
	// summary cache for the taint pass).
	taints map[string]*taintState
}

// Build indexes the package set and constructs the call graph. It does
// not compute summaries; those are built on first use and cached.
func Build(fset *token.FileSet, units []PackageUnit) *Engine {
	e := &Engine{
		Fset:      fset,
		Units:     units,
		funcs:     map[*types.Func]*FuncInfo{},
		implCache: map[*types.Func][]*types.Func{},
	}
	for i := range units {
		u := &units[i]
		if u.Pkg == nil || u.Info == nil {
			continue
		}
		e.collectNamedTypes(u)
		for _, f := range u.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := u.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				e.funcs[origin(obj)] = &FuncInfo{Obj: origin(obj), Decl: fd, Unit: u}
			}
		}
	}
	for fn := range e.funcs {
		e.order = append(e.order, fn)
	}
	sort.Slice(e.order, func(i, j int) bool { return e.order[i].Pos() < e.order[j].Pos() })
	for _, fn := range e.order {
		e.buildCalls(e.funcs[fn])
	}
	return e
}

// Funcs returns every function with a body, in deterministic order.
func (e *Engine) Funcs() []*types.Func { return e.order }

// Info returns the engine's record for fn (Origin-normalized), or nil.
func (e *Engine) Info(fn *types.Func) *FuncInfo {
	if fn == nil {
		return nil
	}
	return e.funcs[origin(fn)]
}

// origin normalizes a possibly-instantiated generic function or method
// to its declared origin, the key the engine indexes by.
func origin(fn *types.Func) *types.Func {
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// collectNamedTypes gathers the package's named types (the interface
// dispatch candidate set).
func (e *Engine) collectNamedTypes(u *PackageUnit) {
	scope := u.Pkg.Scope()
	names := scope.Names() // already sorted
	for _, name := range names {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		if named, ok := tn.Type().(*types.Named); ok {
			e.namedTypes = append(e.namedTypes, named)
		}
	}
}

// unwrapFun strips parens and explicit generic instantiation
// (F[T](...), pkg.F[T](...)) down to the identifier or selector being
// called.
func unwrapFun(e ast.Expr) ast.Expr {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		default:
			return x
		}
	}
}

// FuncOf resolves the *types.Func a call expression targets directly
// (identifier or selector, including explicit generic instantiations),
// or nil for dynamic calls. Used by analyzers that need the syntactic
// callee without full call-site resolution.
func FuncOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := unwrapFun(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return origin(fn)
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return origin(fn)
			}
			return nil
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return origin(fn)
		}
	}
	return nil
}

// PathAndName returns the defining package path and name of fn
// ("repro/internal/table", "ShardFold"); methods render the receiver
// ("(*Server).Warm" -> name "Warm", recv "*Server" is left to callers
// via types).
func PathAndName(fn *types.Func) (string, string) {
	if fn == nil {
		return "", ""
	}
	path := ""
	if fn.Pkg() != nil {
		path = fn.Pkg().Path()
	}
	return path, fn.Name()
}

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// HasContextParam reports whether the signature takes a
// context.Context anywhere in its parameter list.
func HasContextParam(sig *types.Signature) bool {
	if sig == nil {
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if IsContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// posLess orders token positions for deterministic output.
func posLess(fset *token.FileSet, a, b token.Pos) bool {
	pa, pb := fset.Position(a), fset.Position(b)
	if pa.Filename != pb.Filename {
		return pa.Filename < pb.Filename
	}
	if pa.Line != pb.Line {
		return pa.Line < pb.Line
	}
	return pa.Column < pb.Column
}
