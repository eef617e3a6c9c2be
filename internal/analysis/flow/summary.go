package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// This file computes the spec-independent function summaries ("facts")
// bottom-up over the call graph's SCCs:
//
//   - blocking facts: where a function directly blocks (channel ops,
//     selects without default, sleeps, sync waits, network/exec I/O)
//     plus lock-held-across-a-possibly-blocking-call facts derived
//     from the CFG;
//   - MayBlock: transitive closure of blocking over known callees;
//   - closure-parameter dispatch: which func-typed parameters a
//     function invokes, and whether concurrently (go statement,
//     escaping into longer-lived state, or handing to a callee that
//     does);
//   - float-accumulator parameters: pointer-to-float parameters the
//     function accumulates into with +=/-= or x = x + y, the
//     interprocedural extension of floatfold's order-sensitivity rule.
//
// Facts are cached per function inside the Engine (the per-package
// summary cache: every function's summary is computed exactly once per
// rcptlint invocation no matter how many analyzers consult it).

// BlockKind classifies a blocking fact.
type BlockKind string

const (
	BlockChanSend   BlockKind = "channel send"
	BlockChanRecv   BlockKind = "channel receive"
	BlockSelect     BlockKind = "select without default"
	BlockSleep      BlockKind = "time.Sleep"
	BlockSyncWait   BlockKind = "sync wait"
	BlockNetIO      BlockKind = "network I/O"
	BlockExec       BlockKind = "subprocess wait"
	BlockLockAcross BlockKind = "lock held across blocking call"
)

// BlockFact is one direct blocking operation inside a function body.
type BlockFact struct {
	Kind BlockKind
	Pos  token.Pos
	Desc string // human fragment, e.g. "send on jobs"
}

// Summary is the engine's spec-independent fact set for one function.
type Summary struct {
	Fn     *types.Func
	Params []*types.Var // receiver first when the function is a method

	// Blocking facts of this body alone; MayBlock includes callees.
	Blocks   []BlockFact
	MayBlock bool
	HasCtx   bool

	// SpawnsParams / CallsParams are bitmasks over Params (bit i =
	// param i): func-typed parameters this function hands to a
	// goroutine / stores beyond the call (Spawns) or invokes
	// synchronously (Calls), transitively through known callees.
	SpawnsParams uint64
	CallsParams  uint64

	// FloatAccumParams marks pointer-to-float parameters that receive
	// order-sensitive accumulation (*p += x and spellings).
	FloatAccumParams uint64
}

// Summary returns fn's fact summary, computing the whole package set's
// summaries bottom-up on first use.
func (e *Engine) Summary(fn *types.Func) *Summary {
	e.summarizeAll()
	if fi := e.Info(fn); fi != nil {
		return fi.summary
	}
	return nil
}

// MayBlock reports whether fn can block, transitively.
func (e *Engine) MayBlock(fn *types.Func) bool {
	if s := e.Summary(fn); s != nil {
		return s.MayBlock
	}
	// External function: known blocking identities only.
	_, blocking := externalBlockFact(fn)
	return blocking
}

func (e *Engine) summarizeAll() {
	if e.summarized {
		return
	}
	e.summarized = true
	comps := e.sccs() // reverse topological: callees first
	for _, comp := range comps {
		// Seed summaries so intra-SCC lookups resolve during fixpoint.
		for _, fn := range comp {
			fi := e.funcs[fn]
			fi.summary = &Summary{
				Fn:     fn,
				Params: paramVars(fn),
				HasCtx: HasContextParam(fn.Type().(*types.Signature)),
			}
		}
		// Iterate to fixpoint; the lattice is finite bitmasks plus one
		// boolean, so this terminates quickly (usually one round, two
		// for recursive components).
		for changed := true; changed; {
			changed = false
			for _, fn := range comp {
				if e.summarizeOne(e.funcs[fn]) {
					changed = true
				}
			}
		}
	}
	// Second phase, after MayBlock converged: lock-held-across-
	// blocking-call facts need callee MayBlock, and may themselves make
	// a function blocking, so propagate once more to fixpoint.
	for changed := true; changed; {
		changed = false
		for _, fn := range e.order {
			fi := e.funcs[fn]
			if e.lockFacts(fi) {
				changed = true
			}
			if !fi.summary.MayBlock && e.calleesMayBlock(fi) {
				fi.summary.MayBlock = true
				changed = true
			}
		}
	}
}

// summarizeOne recomputes fi's summary; reports whether it grew.
func (e *Engine) summarizeOne(fi *FuncInfo) bool {
	s := fi.summary
	grew := false

	if len(s.Blocks) == 0 {
		facts := e.directBlockFacts(fi)
		if len(facts) > 0 {
			s.Blocks = facts
			grew = true
		}
	}
	if !s.MayBlock && (len(s.Blocks) > 0 || e.calleesMayBlock(fi)) {
		s.MayBlock = true
		grew = true
	}

	spawns, calls := e.paramDispatch(fi)
	if spawns&^s.SpawnsParams != 0 {
		s.SpawnsParams |= spawns
		grew = true
	}
	if calls&^s.CallsParams != 0 {
		s.CallsParams |= calls
		grew = true
	}

	fa := e.floatAccumParams(fi)
	if fa&^s.FloatAccumParams != 0 {
		s.FloatAccumParams |= fa
		grew = true
	}
	return grew
}

func (e *Engine) calleesMayBlock(fi *FuncInfo) bool {
	for _, site := range fi.calls {
		// A blocking callee only blocks the *caller* when invoked
		// synchronously: `go f()` moves the wait to another goroutine.
		if inGoStmt(fi.Decl.Body, site.Call.Pos()) {
			continue
		}
		for _, c := range site.Callees {
			if known := e.funcs[c]; known != nil {
				if known.summary != nil && known.summary.MayBlock {
					return true
				}
				continue
			}
			if _, ok := externalBlockFact(c); ok {
				return true
			}
		}
	}
	return false
}

// directBlockFacts scans fi's body for operations that block the
// calling goroutine, excluding operations inside `go` statements
// (those block a different goroutine) and non-blocking select arms.
func (e *Engine) directBlockFacts(fi *FuncInfo) []BlockFact {
	var facts []BlockFact
	info := fi.Unit.Info
	body := fi.Decl.Body

	// Positions of select statements WITH a default clause: channel
	// operations appearing as their comm clauses are non-blocking.
	nonBlocking := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			facts = append(facts, BlockFact{Kind: BlockSelect, Pos: sel.Pos(), Desc: "select with no default"})
		}
		// The comm clauses' channel ops are covered either by the
		// default clause (non-blocking poll) or by the select fact
		// itself; counting them separately would double-report.
		for _, c := range sel.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
				nonBlocking[cc.Comm] = true
				// The comm statement wraps the channel op; exempt
				// the op expression too.
				ast.Inspect(cc.Comm, func(m ast.Node) bool {
					switch m.(type) {
					case *ast.SendStmt, *ast.UnaryExpr:
						nonBlocking[m] = true
					}
					return true
				})
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		if nonBlocking[n] {
			return true
		}
		switch n := n.(type) {
		case *ast.GoStmt:
			return false // blocks another goroutine, not this one
		case *ast.SendStmt:
			facts = append(facts, BlockFact{Kind: BlockChanSend, Pos: n.Pos(), Desc: "send on " + types.ExprString(n.Chan)})
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				facts = append(facts, BlockFact{Kind: BlockChanRecv, Pos: n.Pos(), Desc: "receive from " + types.ExprString(n.X)})
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					facts = append(facts, BlockFact{Kind: BlockChanRecv, Pos: n.Pos(), Desc: "range over channel " + types.ExprString(n.X)})
				}
			}
		case *ast.CallExpr:
			if fn := FuncOf(info, n); fn != nil {
				if fact, ok := externalBlockFact(fn); ok {
					fact.Pos = n.Pos()
					facts = append(facts, fact)
				}
			}
		}
		return true
	})
	sort.Slice(facts, func(i, j int) bool { return posLess(e.Fset, facts[i].Pos, facts[j].Pos) })
	return facts
}

// externalBlockFact classifies calls to functions outside the loaded
// set that block by contract.
func externalBlockFact(fn *types.Func) (BlockFact, bool) {
	path, name := PathAndName(fn)
	recv := recvTypeName(fn)
	switch {
	case path == "time" && name == "Sleep":
		return BlockFact{Kind: BlockSleep, Desc: "time.Sleep"}, true
	case path == "sync" && recv == "WaitGroup" && name == "Wait":
		return BlockFact{Kind: BlockSyncWait, Desc: "sync.WaitGroup.Wait"}, true
	case path == "sync" && recv == "Cond" && name == "Wait":
		return BlockFact{Kind: BlockSyncWait, Desc: "sync.Cond.Wait"}, true
	case path == "net" && (name == "Dial" || name == "DialTimeout" || name == "Listen"):
		return BlockFact{Kind: BlockNetIO, Desc: "net." + name}, true
	case path == "net/http" && (name == "Get" || name == "Post" || name == "PostForm" || name == "Head"):
		return BlockFact{Kind: BlockNetIO, Desc: "http." + name}, true
	case path == "net/http" && recv == "Client" &&
		(name == "Do" || name == "Get" || name == "Post" || name == "PostForm" || name == "Head"):
		return BlockFact{Kind: BlockNetIO, Desc: "http.Client." + name}, true
	case path == "os/exec" && recv == "Cmd" &&
		(name == "Run" || name == "Wait" || name == "Output" || name == "CombinedOutput"):
		return BlockFact{Kind: BlockExec, Desc: "exec.Cmd." + name}, true
	}
	return BlockFact{}, false
}

// recvTypeName returns the bare receiver type name of a method ("Cmd"
// for (*exec.Cmd).Run), or "".
func recvTypeName(fn *types.Func) string {
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

// lockFacts derives lock-held-across-blocking-call facts for fi using
// its CFG: a sync.Mutex/RWMutex Lock whose critical section (to the
// matching Unlock, or function exit when the Unlock is deferred)
// contains a call that may block. Appends new facts; reports growth.
func (e *Engine) lockFacts(fi *FuncInfo) bool {
	s := fi.summary
	for _, f := range s.Blocks {
		if f.Kind == BlockLockAcross {
			return false // already derived; facts are deterministic
		}
	}
	info := fi.Unit.Info
	g := e.CFG(fi)
	var facts []BlockFact
	for _, blk := range g.Blocks {
		for si, stmt := range blk.Stmts {
			lockRecv, isRLock := lockCall(info, stmt)
			if lockRecv == "" {
				continue
			}
			unlockName := "Unlock"
			if isRLock {
				unlockName = "RUnlock"
			}
			// Deferred unlock directly after the Lock means the lock is
			// held until function exit: every forward statement is in
			// the critical section.
			deferred := false
			if si+1 < len(blk.Stmts) {
				if d, ok := blk.Stmts[si+1].(*ast.DeferStmt); ok {
					if r, _ := lockCallExpr(info, d.Call); r == lockRecv {
						deferred = true
					}
				}
			}
			if pos, desc, found := e.blockingCallInCritical(fi, blk, si+1, lockRecv, unlockName, deferred); found {
				facts = append(facts, BlockFact{
					Kind: BlockLockAcross, Pos: pos,
					Desc: "lock " + lockRecv + " held across " + desc,
				})
			}
		}
	}
	if len(facts) == 0 {
		return false
	}
	s.Blocks = append(s.Blocks, facts...)
	sort.Slice(s.Blocks, func(i, j int) bool { return posLess(e.Fset, s.Blocks[i].Pos, s.Blocks[j].Pos) })
	s.MayBlock = true
	return true
}

// blockingCallInCritical walks the CFG forward from (start block,
// statement index) until the matching unlock, looking for a call that
// may block.
func (e *Engine) blockingCallInCritical(fi *FuncInfo, start *Block, si int, lockRecv, unlockName string, deferred bool) (token.Pos, string, bool) {
	info := fi.Unit.Info
	type item struct {
		blk *Block
		si  int
	}
	seen := map[*Block]bool{}
	queue := []item{{start, si}}
	for len(queue) > 0 {
		it := queue[0]
		queue = queue[1:]
		unlocked := false
		for i := it.si; i < len(it.blk.Stmts); i++ {
			stmt := it.blk.Stmts[i]
			if !deferred {
				if r, name := unlockOf(info, stmt); r == lockRecv && name == unlockName {
					unlocked = true
					break
				}
			}
			if pos, desc, found := e.mayBlockCallIn(fi, stmt); found {
				return pos, desc, true
			}
		}
		if unlocked {
			continue
		}
		for _, succ := range it.blk.Succs {
			if !seen[succ] {
				seen[succ] = true
				queue = append(queue, item{succ, 0})
			}
		}
	}
	return token.NoPos, "", false
}

// mayBlockCallIn reports the first call in stmt (not descending into
// nested function literals or go statements) that may block.
func (e *Engine) mayBlockCallIn(fi *FuncInfo, stmt ast.Stmt) (token.Pos, string, bool) {
	info := fi.Unit.Info
	var pos token.Pos
	var desc string
	found := false
	ast.Inspect(stmt, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		case *ast.SendStmt:
			pos, desc, found = n.Pos(), "a channel send", true
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pos, desc, found = n.Pos(), "a channel receive", true
				return false
			}
		case *ast.CallExpr:
			fn := FuncOf(info, n)
			if fn == nil {
				return true
			}
			if e.MayBlock(fn) {
				pos, desc, found = n.Pos(), "call to "+fn.Name(), true
				return false
			}
		}
		return true
	})
	return pos, desc, found
}

// lockCall matches `x.Lock()` / `x.RLock()` expression statements on a
// sync mutex, returning the receiver's expression string.
func lockCall(info *types.Info, stmt ast.Stmt) (recv string, rlock bool) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return "", false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return "", false
	}
	recv, name := lockCallExpr(info, call)
	if recv == "" || (name != "Lock" && name != "RLock") {
		return "", false
	}
	return recv, name == "RLock"
}

// unlockOf matches `x.Unlock()` / `x.RUnlock()` expression statements.
func unlockOf(info *types.Info, stmt ast.Stmt) (recv, name string) {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return "", ""
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return "", ""
	}
	return lockCallExpr(info, call)
}

// lockCallExpr matches a call to a sync.Mutex/RWMutex method, returning
// the receiver expression string and method name.
func lockCallExpr(info *types.Info, call *ast.CallExpr) (recv, name string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", ""
	}
	r := recvTypeName(fn)
	if r != "Mutex" && r != "RWMutex" {
		return "", ""
	}
	return types.ExprString(sel.X), fn.Name()
}

// SpawnsArg reports whether this call site hands its ai'th argument to
// a goroutine — directly (the call is a `go` statement target handled
// by callers) or because a resolved callee's summary spawns, stores, or
// forwards the corresponding parameter. External callees answer false
// (sort.Slice and friends invoke their callbacks inline; a documented
// soundness limit).
func (e *Engine) SpawnsArg(info *types.Info, call *ast.CallExpr, ai int) bool {
	e.summarizeAll()
	site := e.resolveCall(info, call)
	sp, _ := e.argDispatch(site, call, ai)
	return sp
}

// FloatAccumArg reports whether the call site's ai'th argument feeds a
// callee parameter marked as an order-sensitive float accumulator
// (*p += x inside the callee, transitively).
func (e *Engine) FloatAccumArg(info *types.Info, call *ast.CallExpr, ai int) bool {
	e.summarizeAll()
	site := e.resolveCall(info, call)
	for _, c := range site.Callees {
		known := e.funcs[c]
		if known == nil || known.summary == nil {
			continue
		}
		pi := calleeParamIndex(c, call, ai)
		if pi >= 0 && pi < 64 && known.summary.FloatAccumParams&(1<<uint(pi)) != 0 {
			return true
		}
	}
	return false
}

// paramDispatch computes the spawn/call bitmasks for fi's func-typed
// parameters.
func (e *Engine) paramDispatch(fi *FuncInfo) (spawns, calls uint64) {
	info := fi.Unit.Info
	body := fi.Decl.Body
	params := fi.summary.Params
	paramBit := map[*types.Var]uint64{}
	for i, p := range params {
		if i >= 60 {
			break
		}
		if _, ok := p.Type().Underlying().(*types.Signature); ok {
			paramBit[p] = 1 << uint(i)
		}
	}
	if len(paramBit) == 0 {
		return 0, 0
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			// Direct invocation p(...).
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok {
					if bit, isParam := paramBit[v]; isParam {
						if inGoStmt(body, n.Pos()) {
							spawns |= bit
						} else {
							calls |= bit
						}
					}
				}
			}
			// p passed as an argument: inherit the callee's dispatch.
			site := e.resolveCall(info, n)
			for ai, arg := range n.Args {
				id, ok := ast.Unparen(arg).(*ast.Ident)
				if !ok {
					continue
				}
				v, ok := info.Uses[id].(*types.Var)
				if !ok {
					continue
				}
				bit, isParam := paramBit[v]
				if !isParam {
					continue
				}
				sp, ca := e.argDispatch(site, n, ai)
				if ca && inGoStmt(body, n.Pos()) {
					// A callee that calls p from inside a go statement
					// runs it on that goroutine, as p(...) there would.
					sp, ca = true, false
				}
				if sp {
					spawns |= bit
				}
				if ca {
					calls |= bit
				}
			}
		case *ast.AssignStmt:
			// Storing a func param into anything makes its invocation
			// site invisible; treat as potentially concurrent.
			for _, rhs := range n.Rhs {
				if id, ok := ast.Unparen(rhs).(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok {
						if bit, isParam := paramBit[v]; isParam {
							spawns |= bit
						}
					}
				}
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				expr := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					expr = kv.Value
				}
				if id, ok := ast.Unparen(expr).(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok {
						if bit, isParam := paramBit[v]; isParam {
							spawns |= bit
						}
					}
				}
			}
		case *ast.SendStmt:
			// Sending a func param down a channel hands it to whatever
			// goroutine drains the channel (worker-pool shape).
			if id, ok := ast.Unparen(n.Value).(*ast.Ident); ok {
				if v, ok := info.Uses[id].(*types.Var); ok {
					if bit, isParam := paramBit[v]; isParam {
						spawns |= bit
					}
				}
			}
		case *ast.ReturnStmt:
			// Returning a func param lets the caller invoke it anywhere.
			for _, res := range n.Results {
				if id, ok := ast.Unparen(res).(*ast.Ident); ok {
					if v, ok := info.Uses[id].(*types.Var); ok {
						if bit, isParam := paramBit[v]; isParam {
							spawns |= bit
						}
					}
				}
			}
		case *ast.GoStmt:
			// go p(...) handled above via inGoStmt; still descend so
			// nested arg passing is seen.
		}
		return true
	})
	return spawns, calls
}

// argDispatch reports how a call site treats its ai'th argument when it
// is func-typed: spawned concurrently or called synchronously,
// according to the callee's summary. External callees default to
// synchronous (sort.Slice, filepath.WalkDir, ... invoke their callback
// inline) — a documented soundness limit that keeps FP pressure off
// splitshare.
func (e *Engine) argDispatch(site CallSite, call *ast.CallExpr, ai int) (spawned, called bool) {
	for _, c := range site.Callees {
		known := e.funcs[c]
		if known == nil || known.summary == nil {
			called = true
			continue
		}
		pi := calleeParamIndex(c, call, ai)
		if pi < 0 || pi >= 64 {
			continue
		}
		if known.summary.SpawnsParams&(1<<uint(pi)) != 0 {
			spawned = true
		}
		if known.summary.CallsParams&(1<<uint(pi)) != 0 {
			called = true
		}
	}
	if site.Dynamic && len(site.Callees) == 0 {
		called = true
	}
	return spawned, called
}

// calleeParamIndex maps argument index ai of call to the callee's
// parameter index in its summary (receiver occupies slot 0 for
// methods; variadic tail collapses onto the last parameter).
func calleeParamIndex(callee *types.Func, call *ast.CallExpr, ai int) int {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return -1
	}
	shift := 0
	if sig.Recv() != nil {
		// Method expression form T.M(recv, args...) passes the
		// receiver as arg 0; ordinary method calls do not.
		if !isMethodExprCall(call, sig) {
			shift = 1
		}
	}
	idx := ai + shift
	last := sig.Params().Len() - 1 + shift
	if sig.Variadic() && idx > last {
		idx = last
	}
	if idx >= sig.Params().Len()+shift {
		return -1
	}
	return idx
}

// isMethodExprCall detects the rare T.M(recv, ...) method-expression
// call shape, where the receiver travels as the first argument.
func isMethodExprCall(call *ast.CallExpr, sig *types.Signature) bool {
	if sig.Recv() == nil {
		return false
	}
	return len(call.Args) == sig.Params().Len()+1
}

// floatAccumParams marks pointer-to-float parameters accumulated into
// order-sensitively: *p += x, *p -= x, *p = *p + x.
func (e *Engine) floatAccumParams(fi *FuncInfo) uint64 {
	info := fi.Unit.Info
	params := fi.summary.Params
	paramBit := map[*types.Var]uint64{}
	for i, p := range params {
		if i >= 60 {
			break
		}
		if ptr, ok := p.Type().Underlying().(*types.Pointer); ok {
			if b, ok := ptr.Elem().Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
				paramBit[p] = 1 << uint(i)
			}
		}
	}
	if len(paramBit) == 0 {
		return 0
	}
	var mask uint64
	deref := func(expr ast.Expr) *types.Var {
		star, ok := ast.Unparen(expr).(*ast.StarExpr)
		if !ok {
			return nil
		}
		id, ok := ast.Unparen(star.X).(*ast.Ident)
		if !ok {
			return nil
		}
		v, _ := info.Uses[id].(*types.Var)
		return v
	}
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 {
			return true
		}
		v := deref(as.Lhs[0])
		if v == nil {
			return true
		}
		bit, isParam := paramBit[v]
		if !isParam {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			mask |= bit
		case token.ASSIGN:
			// *p = *p + x spelling.
			if bin, ok := as.Rhs[0].(*ast.BinaryExpr); ok {
				switch bin.Op {
				case token.ADD, token.SUB, token.MUL, token.QUO:
					if deref(bin.X) == v || deref(bin.Y) == v {
						mask |= bit
					}
				}
			}
		}
		return true
	})
	return mask
}

// paramVars lists a function's parameters with the receiver first.
func paramVars(fn *types.Func) []*types.Var {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var out []*types.Var
	if sig.Recv() != nil {
		out = append(out, sig.Recv())
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// inGoStmt reports whether pos lies inside a `go` statement's subtree
// within body.
func inGoStmt(body *ast.BlockStmt, pos token.Pos) bool {
	inside := false
	ast.Inspect(body, func(n ast.Node) bool {
		if inside {
			return false
		}
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if g.Pos() <= pos && pos < g.End() {
			inside = true
			return false
		}
		return true
	})
	return inside
}
