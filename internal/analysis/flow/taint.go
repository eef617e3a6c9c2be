package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file is the interprocedural taint pass. A TaintSpec names the
// sources (calls that mint nondeterminism) and sinks (calls whose
// arguments become artifact bytes); the engine computes, bottom-up
// over call-graph SCCs, a per-function transfer summary — which
// parameters flow to which results, which parameters reach a sink
// inside the callee, which results are source-tainted outright — and
// then reports every flow at the frame where a source-rooted value
// enters a sink (directly, or through a callee whose summary says the
// argument keeps flowing down to one).
//
// The taint lattice is a bitmask per value: bit i (< 60) means "may
// depend on parameter i" (receiver is parameter 0 of a method), bit 62
// means "derived from a nondeterminism source", bit 61 means "carries
// map-iteration order" (seeded on the loop variables of a range over a
// map, reported only when the sink call sits inside that loop — an
// escaping order-sensitive accumulator is maporder's finding, not
// ours). Masks only grow, so the per-function fixpoint terminates.
//
// Propagation inside a function is flow-insensitive over the whole
// body including nested function literals (a closure's statements see
// the same environment as its enclosing function, which is exactly how
// captured variables behave). Assigning through a field, index, or
// pointer taints the root variable — coarse, but the right polarity:
// a config struct carrying one time.Now() field is tainted wholesale,
// which is precisely the Config.Fingerprint case the analyzer exists
// to catch. Calls the engine cannot resolve propagate the union of
// their argument taints to their results (fmt.Sprintf launders
// nothing) but never report.

const (
	sourceBit = uint64(1) << 62
	orderBit  = uint64(1) << 61
)

// TaintSpec declares sources and sinks for one taint analysis.
type TaintSpec struct {
	// Name keys the engine's memoization; two specs with the same name
	// are assumed identical.
	Name string
	// IsSource classifies a resolved callee (in the context of one call
	// expression — needed for call-shape sources like fmt.Sprintf with a
	// %p verb) as a nondeterminism source, returning a human description
	// ("time.Now").
	IsSource func(fn *types.Func, call *ast.CallExpr) (string, bool)
	// SinkArgs classifies a call to fn as an artifact-byte sink,
	// returning a description and the argument expressions whose taint
	// is reportable (sensitive arguments). A nil slice with ok=true
	// means every ordinary argument is sensitive.
	SinkArgs func(fn *types.Func, call *ast.CallExpr, info *types.Info) (string, []ast.Expr, bool)
	// Sanitizes returns a bitmask of fn's parameters (receiver = bit 0
	// for methods) whose taint is contractually guaranteed not to leak
	// into fn's results — e.g. the shard/worker counts of order-free
	// aggregation helpers, whose output is shard-count-independent by
	// contract (a contract enforced elsewhere: shardpure plus the
	// shard-count equivalence tests). Nil means nothing is sanitized.
	Sanitizes func(fn *types.Func) uint64
}

// Flow is one reported source-to-sink flow.
type Flow struct {
	Fn       *types.Func // function whose body contains the sink call
	Pos      token.Pos   // position of the tainted argument
	SinkDesc string      // e.g. "table.Writer.Float64" or "sink inside core.writeRow"
	Source   Witness
}

// Witness records where taint was minted.
type Witness struct {
	Pos  token.Pos
	Desc string // "time.Now", "map iteration order", ...
}

// TaintSummary is the per-function transfer function for one spec.
type TaintSummary struct {
	// ResultTaint[r] is the taint mask of result r: parameter bits map
	// caller arguments through, sourceBit means tainted regardless.
	ResultTaint []uint64
	// ResultWitness[r] backs sourceBit in ResultTaint[r].
	ResultWitness []*Witness
	// SinkParams marks parameters that reach a sink inside this
	// function (transitively); SinkDesc describes it per parameter.
	SinkParams uint64
	SinkDesc   map[int]string
}

type taintState struct {
	spec      *TaintSpec
	summaries map[*types.Func]*TaintSummary
	flows     []Flow
}

// Taint runs the spec over the whole loaded set (memoized by
// spec.Name) and returns every source-to-sink flow, ordered by
// position.
func (e *Engine) Taint(spec *TaintSpec) []Flow {
	if e.taints == nil {
		e.taints = map[string]*taintState{}
	}
	if st, ok := e.taints[spec.Name]; ok {
		return st.flows
	}
	st := &taintState{spec: spec, summaries: map[*types.Func]*TaintSummary{}}
	e.taints[spec.Name] = st

	// Phase 1: transfer summaries, bottom-up, fixpoint per SCC.
	for _, comp := range e.sccs() {
		for _, fn := range comp {
			st.summaries[fn] = newTaintSummary(fn)
		}
		for changed := true; changed; {
			changed = false
			for _, fn := range comp {
				if e.taintOne(st, e.funcs[fn], nil) {
					changed = true
				}
			}
		}
	}
	// Phase 2: with all summaries final, collect flows per function.
	for _, fn := range e.order {
		e.taintOne(st, e.funcs[fn], &st.flows)
	}
	sort.Slice(st.flows, func(i, j int) bool { return posLess(e.Fset, st.flows[i].Pos, st.flows[j].Pos) })
	return st.flows
}

func newTaintSummary(fn *types.Func) *TaintSummary {
	sig, _ := fn.Type().(*types.Signature)
	n := 0
	if sig != nil {
		n = sig.Results().Len()
	}
	return &TaintSummary{
		ResultTaint:   make([]uint64, n),
		ResultWitness: make([]*Witness, n),
		SinkDesc:      map[int]string{},
	}
}

// taintVal is one lattice element with a source witness.
type taintVal struct {
	mask uint64
	src  *Witness
}

func (v taintVal) union(o taintVal) taintVal {
	out := taintVal{mask: v.mask | o.mask, src: v.src}
	if out.src == nil {
		out.src = o.src
	}
	return out
}

// propagation carries one function's flow-insensitive environment.
type propagation struct {
	e       *Engine
	st      *taintState
	fi      *FuncInfo
	info    *types.Info
	env     map[*types.Var]taintVal
	namedRv []*types.Var // named result variables, by result index
	// mapRanges holds [pos,end) of every range-over-map statement, for
	// the orderBit in-loop sink condition.
	mapRanges [][2]token.Pos
	changed   bool
}

// taintOne runs the propagation for fi. When flows is nil it only
// updates the function's transfer summary (returning whether it grew);
// otherwise it appends this function's reportable flows.
func (e *Engine) taintOne(st *taintState, fi *FuncInfo, flows *[]Flow) bool {
	p := &propagation{e: e, st: st, fi: fi, info: fi.Unit.Info, env: map[*types.Var]taintVal{}}
	sum := st.summaries[fi.Obj]

	// Seed parameters with their bits (receiver is bit 0).
	params := paramVars(fi.Obj)
	for i, v := range params {
		if i >= 60 {
			break
		}
		p.set(v, taintVal{mask: 1 << uint(i)})
	}
	// Named results participate as ordinary variables.
	if fi.Decl.Type.Results != nil {
		sig := fi.Obj.Type().(*types.Signature)
		for i := 0; i < sig.Results().Len(); i++ {
			rv := sig.Results().At(i)
			if rv.Name() != "" {
				p.namedRv = append(p.namedRv, rv)
			} else {
				p.namedRv = append(p.namedRv, nil)
			}
		}
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok {
			if t := p.info.TypeOf(rs.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					p.mapRanges = append(p.mapRanges, [2]token.Pos{rs.Pos(), rs.End()})
				}
			}
		}
		return true
	})

	// Fixpoint over the statement soup.
	for p.changed = true; p.changed; {
		p.changed = false
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			p.stmt(n)
			return true
		})
	}

	grew := false
	// Extract result taints from return statements and named results.
	resultMasks := make([]uint64, len(sum.ResultTaint))
	resultWits := make([]*Witness, len(sum.ResultTaint))
	record := func(i int, v taintVal) {
		if i < 0 || i >= len(resultMasks) {
			return
		}
		resultMasks[i] |= v.mask
		if resultWits[i] == nil {
			resultWits[i] = v.src
		}
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if len(ret.Results) == 1 && len(resultMasks) > 1 {
			// return f() forwarding multiple results.
			if call, ok := ret.Results[0].(*ast.CallExpr); ok {
				vals := p.callResults(call)
				for i, v := range vals {
					record(i, v)
				}
				return true
			}
		}
		for i, expr := range ret.Results {
			record(i, p.eval(expr))
		}
		return true
	})
	for i, rv := range p.namedRv {
		if rv != nil {
			record(i, p.env[rv])
		}
	}
	var sanitized uint64
	if st.spec.Sanitizes != nil {
		sanitized = st.spec.Sanitizes(fi.Obj)
	}
	for i := range resultMasks {
		m := resultMasks[i] &^ orderBit &^ sanitized // order taint stays local
		if m&^sum.ResultTaint[i] != 0 {
			sum.ResultTaint[i] |= m
			grew = true
		}
		if sum.ResultWitness[i] == nil && resultWits[i] != nil {
			sum.ResultWitness[i] = resultWits[i]
			grew = true
		}
	}

	// Sink pass: direct sinks and callee SinkParams.
	if p.sinkPass(sum, flows) {
		grew = true
	}
	return grew
}

func (p *propagation) set(v *types.Var, val taintVal) {
	cur := p.env[v]
	merged := cur.union(val)
	if merged.mask != cur.mask || (cur.src == nil && merged.src != nil) {
		p.env[v] = merged
		p.changed = true
	}
}

// stmt transfers taint for one statement node during the fixpoint.
func (p *propagation) stmt(n ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Lhs) > 1 && len(n.Rhs) == 1 {
			// x, y := f()  /  v, ok := m[k]  /  v, ok := <-ch
			vals := p.multiValue(n.Rhs[0], len(n.Lhs))
			for i, lhs := range n.Lhs {
				p.assign(lhs, vals[i])
			}
			return
		}
		for i, lhs := range n.Lhs {
			if i < len(n.Rhs) {
				val := p.eval(n.Rhs[i])
				if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
					// Compound assignment keeps the old taint too.
					val = val.union(p.eval(lhs))
				}
				p.assign(lhs, val)
			}
		}
	case *ast.ValueSpec:
		if len(n.Names) > 1 && len(n.Values) == 1 {
			if call, ok := n.Values[0].(*ast.CallExpr); ok {
				vals := p.callResults(call)
				for i, name := range n.Names {
					if i < len(vals) {
						p.defineIdent(name, vals[i])
					}
				}
				return
			}
		}
		for i, name := range n.Names {
			if i < len(n.Values) {
				p.defineIdent(name, p.eval(n.Values[i]))
			}
		}
	case *ast.RangeStmt:
		val := p.eval(n.X)
		if t := p.info.TypeOf(n.X); t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				val = val.union(taintVal{mask: orderBit, src: &Witness{Pos: n.Pos(), Desc: "map iteration order"}})
			}
		}
		if n.Key != nil {
			p.assign(n.Key, val)
		}
		if n.Value != nil {
			p.assign(n.Value, val)
		}
	case *ast.SendStmt:
		// The channel variable is a container for whatever was sent.
		if root := p.rootVar(n.Chan); root != nil {
			p.set(root, p.eval(n.Value))
		}
	}
}

// assign taints the root variable of an lvalue.
func (p *propagation) assign(lhs ast.Expr, val taintVal) {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		if v, ok := p.info.Defs[id].(*types.Var); ok {
			p.set(v, val)
			return
		}
		if v, ok := p.info.Uses[id].(*types.Var); ok {
			p.set(v, val)
			return
		}
		return
	}
	// Field, index, or pointer target: taint the root variable.
	if root := p.rootVar(lhs); root != nil {
		p.set(root, val)
	}
}

func (p *propagation) defineIdent(id *ast.Ident, val taintVal) {
	if v, ok := p.info.Defs[id].(*types.Var); ok {
		p.set(v, val)
	}
}

// rootVar walks selectors/indexes/stars/parens to the base variable.
func (p *propagation) rootVar(expr ast.Expr) *types.Var {
	for {
		switch x := expr.(type) {
		case *ast.ParenExpr:
			expr = x.X
		case *ast.SelectorExpr:
			expr = x.X
		case *ast.IndexExpr:
			expr = x.X
		case *ast.StarExpr:
			expr = x.X
		case *ast.Ident:
			if v, ok := p.info.Uses[x].(*types.Var); ok {
				return v
			}
			if v, ok := p.info.Defs[x].(*types.Var); ok {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

// eval computes an expression's taint.
func (p *propagation) eval(expr ast.Expr) taintVal {
	switch x := expr.(type) {
	case nil:
		return taintVal{}
	case *ast.Ident:
		if v, ok := p.info.Uses[x].(*types.Var); ok {
			return p.env[v]
		}
		return taintVal{}
	case *ast.ParenExpr:
		return p.eval(x.X)
	case *ast.SelectorExpr:
		// Field read off a tainted value, or qualified identifier.
		if _, isPkg := p.info.Uses[selRootIdent(x)].(*types.PkgName); isPkg && selRootIdent(x) != nil {
			return taintVal{}
		}
		return p.eval(x.X)
	case *ast.StarExpr:
		return p.eval(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.ARROW { // <-ch yields what the channel holds
			return p.eval(x.X)
		}
		return p.eval(x.X)
	case *ast.BinaryExpr:
		return p.eval(x.X).union(p.eval(x.Y))
	case *ast.IndexExpr:
		return p.eval(x.X).union(p.eval(x.Index))
	case *ast.IndexListExpr:
		return p.eval(x.X)
	case *ast.SliceExpr:
		return p.eval(x.X)
	case *ast.TypeAssertExpr:
		return p.eval(x.X)
	case *ast.CompositeLit:
		var out taintVal
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			out = out.union(p.eval(el))
		}
		return out
	case *ast.CallExpr:
		vals := p.callResults(x)
		var out taintVal
		for _, v := range vals {
			out = out.union(v)
		}
		return out
	case *ast.FuncLit:
		return taintVal{} // the closure value itself carries no taint
	default:
		return taintVal{}
	}
}

// multiValue evaluates the rhs of a 1-to-n assignment.
func (p *propagation) multiValue(rhs ast.Expr, n int) []taintVal {
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		vals := p.callResults(call)
		for len(vals) < n {
			vals = append(vals, taintVal{})
		}
		return vals
	}
	// v, ok := m[k]  /  v, ok := <-ch  /  v, ok := x.(T)
	out := make([]taintVal, n)
	out[0] = p.eval(rhs)
	return out
}

// callResults computes the taint of each result of a call.
func (p *propagation) callResults(call *ast.CallExpr) []taintVal {
	info := p.info
	// Type conversion: taint passes through.
	if isTypeConversion(info, call) {
		if len(call.Args) == 1 {
			return []taintVal{p.eval(call.Args[0])}
		}
		return []taintVal{{}}
	}
	if isBuiltinCall(info, call) {
		id, _ := ast.Unparen(call.Fun).(*ast.Ident)
		switch id.Name {
		case "len", "cap", "new", "make":
			return []taintVal{{}}
		default: // append, min, max, copy...
			var out taintVal
			for _, a := range call.Args {
				out = out.union(p.eval(a))
			}
			return []taintVal{out}
		}
	}

	site := p.e.resolveCall(info, call)
	nResults := 1
	if sig, ok := info.TypeOf(call.Fun).(*types.Signature); ok {
		nResults = sig.Results().Len()
	}
	out := make([]taintVal, nResults)

	// Source calls mint taint on every result (and on pointer arguments
	// and receivers, which the source may have written through —
	// fmt.Fprintf(&b, "%p", x) taints b).
	for _, c := range site.Callees {
		if desc, ok := p.st.spec.IsSource(c, call); ok {
			w := &Witness{Pos: call.Pos(), Desc: desc}
			minted := taintVal{mask: sourceBit, src: w}
			for i := range out {
				out[i] = out[i].union(minted)
			}
			p.taintMutableOperands(call, minted)
			return out
		}
	}

	summarized := false
	for _, c := range site.Callees {
		sum := p.st.summaries[c]
		if sum == nil {
			continue
		}
		summarized = true
		for r := 0; r < len(sum.ResultTaint) && r < len(out); r++ {
			mask := sum.ResultTaint[r]
			if mask&sourceBit != 0 {
				w := sum.ResultWitness[r]
				if w == nil {
					w = &Witness{Pos: call.Pos(), Desc: "nondeterministic callee"}
				}
				out[r] = out[r].union(taintVal{mask: sourceBit, src: w})
			}
			for pi := 0; pi < 60; pi++ {
				if mask&(1<<uint(pi)) == 0 {
					continue
				}
				if arg := p.argForParam(site, c, call, pi); arg != nil {
					out[r] = out[r].union(p.eval(arg))
				}
			}
		}
	}
	if !summarized {
		// Unresolved or external callee: propagate argument (and
		// receiver) taint through to every result, except arguments at
		// contractually sanitized parameter positions.
		var all taintVal
		for ai, a := range call.Args {
			if p.argSanitized(site, call, ai) {
				continue
			}
			all = all.union(p.eval(a))
		}
		var recvRoot *types.Var
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if _, isSel := info.Selections[sel]; isSel {
				all = all.union(p.eval(sel.X))
				recvRoot = p.rootVar(sel.X)
			}
		}
		for i := range out {
			out[i] = out[i].union(all)
		}
		// Externals may store into pointer arguments and receivers:
		// fmt.Fprintf(&b, tainted) taints b, b.WriteString(tainted)
		// taints b. This is how builder-then-hash pipelines (e.g.
		// Config.Fingerprint) stay connected.
		if all.mask != 0 {
			if recvRoot != nil {
				p.set(recvRoot, all)
			}
			p.taintMutableOperands(call, all)
		}
	}
	return out
}

// argSanitized reports whether the call's ai'th argument lands on a
// parameter position some resolved callee contractually sanitizes.
func (p *propagation) argSanitized(site CallSite, call *ast.CallExpr, ai int) bool {
	if p.st.spec.Sanitizes == nil {
		return false
	}
	for _, c := range site.Callees {
		bits := p.st.spec.Sanitizes(c)
		if bits == 0 {
			continue
		}
		if pi := calleeParamIndex(c, call, ai); pi >= 0 && pi < 60 && bits&(1<<uint(pi)) != 0 {
			return true
		}
	}
	return false
}

// taintMutableOperands taints the roots of pointer-shaped arguments of
// a call whose callee may write through them.
func (p *propagation) taintMutableOperands(call *ast.CallExpr, val taintVal) {
	for _, a := range call.Args {
		a = ast.Unparen(a)
		if u, ok := a.(*ast.UnaryExpr); ok && u.Op == token.AND {
			if root := p.rootVar(u.X); root != nil {
				p.set(root, val)
			}
			continue
		}
		if t := p.info.TypeOf(a); t != nil {
			if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
				if root := p.rootVar(a); root != nil {
					p.set(root, val)
				}
			}
		}
	}
}

// argForParam maps callee parameter index pi (receiver = 0 for
// methods) back to the argument expression at this call site.
func (p *propagation) argForParam(site CallSite, callee *types.Func, call *ast.CallExpr, pi int) ast.Expr {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if sig.Recv() != nil {
		if isMethodExprCall(call, sig) {
			if pi < len(call.Args) {
				return call.Args[pi]
			}
			return nil
		}
		if pi == 0 {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				return sel.X
			}
			return nil
		}
		pi--
	}
	if sig.Variadic() && pi >= sig.Params().Len()-1 {
		// Union of the variadic tail: return the first tail arg; the
		// caller unions the rest via repeated bits... keep it simple
		// and evaluate the whole tail here is not possible, so pick
		// each tail argument by repeated calls: compensate by letting
		// sinkPass and callResults union the tail explicitly.
		if sig.Params().Len()-1 < len(call.Args) {
			return call.Args[sig.Params().Len()-1]
		}
		return nil
	}
	if pi < len(call.Args) {
		return call.Args[pi]
	}
	return nil
}

// variadicTail returns every argument bound to a variadic final
// parameter, so taint unions over the whole tail.
func variadicTail(callee *types.Func, call *ast.CallExpr) []ast.Expr {
	sig, ok := callee.Type().(*types.Signature)
	if !ok || !sig.Variadic() {
		return nil
	}
	fixed := sig.Params().Len() - 1
	if sig.Recv() != nil && isMethodExprCall(call, sig) {
		fixed++
	}
	if fixed >= len(call.Args) {
		return nil
	}
	return call.Args[fixed:]
}

func selRootIdent(sel *ast.SelectorExpr) *ast.Ident {
	id, _ := sel.X.(*ast.Ident)
	return id
}

// sinkPass scans every call site for sink hits: tainted arguments into
// spec sinks, and tainted arguments into callees whose summaries reach
// a sink. Updates sum.SinkParams; appends to flows when non-nil.
func (p *propagation) sinkPass(sum *TaintSummary, flows *[]Flow) bool {
	grew := false
	report := func(pos token.Pos, desc string, val taintVal) {
		if val.mask&sourceBit != 0 {
			if flows != nil {
				w := Witness{Desc: "nondeterminism source"}
				if val.src != nil {
					w = *val.src
				}
				*flows = append(*flows, Flow{Fn: p.fi.Obj, Pos: pos, SinkDesc: desc, Source: w})
			}
			return
		}
		if val.mask&orderBit != 0 && p.inMapRange(pos) {
			if flows != nil {
				w := Witness{Desc: "map iteration order"}
				if val.src != nil && val.src.Desc == "map iteration order" {
					w = *val.src
				}
				*flows = append(*flows, Flow{Fn: p.fi.Obj, Pos: pos, SinkDesc: desc, Source: w})
			}
			return
		}
		// Parameter-rooted: export through the summary.
		for pi := 0; pi < 60; pi++ {
			if val.mask&(1<<uint(pi)) != 0 && sum.SinkParams&(1<<uint(pi)) == 0 {
				sum.SinkParams |= 1 << uint(pi)
				sum.SinkDesc[pi] = desc
				grew = true
			}
		}
	}

	for _, site := range p.fi.calls {
		call := site.Call
		for _, c := range site.Callees {
			// Direct sink per spec.
			if desc, sens, ok := p.st.spec.SinkArgs(c, call, p.info); ok {
				if sens == nil {
					sens = call.Args
				}
				for _, arg := range sens {
					report(arg.Pos(), desc, p.eval(arg))
				}
				continue
			}
			// Transitive sink through the callee's summary.
			calleeSum := p.st.summaries[c]
			if calleeSum == nil || calleeSum.SinkParams == 0 {
				continue
			}
			for pi := 0; pi < 60; pi++ {
				if calleeSum.SinkParams&(1<<uint(pi)) == 0 {
					continue
				}
				desc := calleeSum.SinkDesc[pi]
				if desc == "" {
					desc = "sink inside " + c.Name()
				} else {
					desc += " (via " + c.Name() + ")"
				}
				sig, _ := c.Type().(*types.Signature)
				isVariadicTail := sig != nil && sig.Variadic() &&
					pi == len(paramVars(c))-1
				if isVariadicTail {
					for _, arg := range variadicTail(c, call) {
						report(arg.Pos(), desc, p.eval(arg))
					}
					continue
				}
				if arg := p.argForParam(site, c, call, pi); arg != nil {
					report(arg.Pos(), desc, p.eval(arg))
				}
			}
		}
	}
	return grew
}

func (p *propagation) inMapRange(pos token.Pos) bool {
	for _, r := range p.mapRanges {
		if r[0] <= pos && pos < r[1] {
			return true
		}
	}
	return false
}
