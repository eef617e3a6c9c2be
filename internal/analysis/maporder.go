package analysis

import (
	"cmp"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// MapOrder flags `range` over a map whose body either accumulates into a
// floating-point variable declared outside the loop or appends to a
// slice declared outside the loop. Go randomizes map iteration order, so
// both patterns make the result depend on the iteration schedule: float
// addition is not associative, and an escaping slice keeps the visit
// order. This is the exact class of the jainFairness bug PR 1's
// worker-count equivalence test exposed. The fix is to collect and sort
// the keys, then range over the sorted slice — the standard
// collect-then-sort idiom (append inside the loop, sort.Strings/Slice
// right after) erases the order and is recognized as clean. When the
// loop appends the map's keys, a comparator sort erases the order only
// if its comparator ends on the keys themselves (keys[i] < keys[j],
// cmp.Compare(a, b), or the last argument of a cmp.Or); otherwise keys
// that compare equal keep the iteration order, and the sort is
// reported. sort.Sort and sort.Stable, whose comparator is a Less
// method, never erase it.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "range over a map must not do order-sensitive accumulation (float folds, unsorted escaping appends)",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) error {
	for _, f := range pass.Files {
		sorted := sortCalls(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.Info.TypeOf(rs.X)
			if t == nil {
				return true
			}
			if _, ok := t.Underlying().(*types.Map); !ok {
				return true
			}
			checkMapRangeBody(pass, rs, sorted)
			return true
		})
	}
	return nil
}

// sortCall is one call that reorders a variable. byElem is set when
// the order it leaves depends on the elements alone: a value sort, or a
// comparator literal whose last statement compares the two elements.
type sortCall struct {
	pos    token.Pos
	byElem bool
}

// sortCalls maps each variable to the sort/slices calls that reorder it
// (sort.Strings(v), sort.Slice(v, ...), slices.SortFunc(v, ...),
// including through a one-level conversion like sort.Sort(byName(v))).
func sortCalls(pass *Pass, f *ast.File) map[*types.Var][]sortCall {
	out := map[*types.Var][]sortCall{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		pkgPath, name := pkgFunc(pass, call.Fun)
		if !isSortFunc(pkgPath, name) {
			return true
		}
		arg := call.Args[0]
		if inner, ok := arg.(*ast.CallExpr); ok && len(inner.Args) == 1 {
			arg = inner.Args[0]
		}
		if argID, ok := arg.(*ast.Ident); ok {
			if v := useObj(pass.Info, argID); v != nil {
				out[v] = append(out[v], sortCall{call.Pos(), sortsByElem(pass, call, pkgPath, name, v)})
			}
		}
		return true
	})
	return out
}

// pkgFunc resolves fun to a package-level function's import path and
// name, or returns empty strings.
func pkgFunc(pass *Pass, fun ast.Expr) (pkgPath, name string) {
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok {
			if pkgName, ok := pass.Info.Uses[id].(*types.PkgName); ok {
				return pkgName.Imported().Path(), sel.Sel.Name
			}
		}
	}
	return "", ""
}

func isSortFunc(pkgPath, name string) bool {
	switch pkgPath {
	case "sort":
		switch name {
		case "Strings", "Ints", "Float64s", "Slice", "SliceStable", "Sort", "Stable":
			return true
		}
	case "slices":
		return name == "Sort" || name == "SortFunc" || name == "SortStableFunc"
	}
	return false
}

// sortsByElem reports whether a sort of v orders by the elements alone
// (see sortCall). sort.Slice's comparator takes indexes into v,
// slices.SortFunc's the elements themselves.
func sortsByElem(pass *Pass, call *ast.CallExpr, pkgPath, name string, v *types.Var) bool {
	if name == "Strings" || name == "Ints" || name == "Float64s" || pkgPath == "slices" && name == "Sort" {
		return true
	}
	fn, ok := call.Args[len(call.Args)-1].(*ast.FuncLit)
	if !ok || len(call.Args) != 2 || len(fn.Body.List) == 0 {
		return false
	}
	ret, ok := fn.Body.List[len(fn.Body.List)-1].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	var params []types.Object
	for _, field := range fn.Type.Params.List {
		for _, id := range field.Names {
			params = append(params, pass.Info.Defs[id])
		}
	}
	// elem numbers the element an operand names, 1 or 2, else 0.
	elem := func(e ast.Expr) int {
		if pkgPath == "sort" { // the parameters index v
			ix, ok := e.(*ast.IndexExpr)
			if !ok {
				return 0
			}
			if x, ok := ix.X.(*ast.Ident); !ok || useObj(pass.Info, x) != v {
				return 0
			}
			e = ix.Index
		}
		if id, ok := e.(*ast.Ident); ok && len(params) == 2 {
			return slices.Index(params, pass.Info.Uses[id]) + 1
		}
		return 0
	}
	return comparesElems(pass, ret.Results[0], elem)
}

// comparesElems reports whether e compares the two elements elem
// numbers: with an ordering operator, as cmp.Compare's arguments, or in
// the last argument of a cmp.Or.
func comparesElems(pass *Pass, e ast.Expr, elem func(ast.Expr) int) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.BinaryExpr:
		ordering := e.Op == token.LSS || e.Op == token.GTR || e.Op == token.LEQ || e.Op == token.GEQ
		return ordering && elem(e.X)*elem(e.Y) == 2
	case *ast.CallExpr:
		switch pkgPath, name := pkgFunc(pass, e.Fun); {
		case pkgPath == "cmp" && name == "Compare" && len(e.Args) == 2:
			return elem(e.Args[0])*elem(e.Args[1]) == 2
		case pkgPath == "cmp" && name == "Or" && len(e.Args) > 0:
			return comparesElems(pass, e.Args[len(e.Args)-1], elem)
		}
	}
	return false
}

// sortAfter returns v's first sort after pos — the collect-then-sort
// idiom — or token.NoPos, and whether a sort after pos orders by the
// elements alone.
func sortAfter(sorted map[*types.Var][]sortCall, v *types.Var, pos token.Pos) (first token.Pos, byElem bool) {
	for _, c := range sorted[v] {
		if c.pos > pos {
			first = cmp.Or(first, c.pos)
			byElem = byElem || c.byElem
		}
	}
	return first, byElem
}

func checkMapRangeBody(pass *Pass, rs *ast.RangeStmt, sorted map[*types.Var][]sortCall) {
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch as.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			if len(as.Lhs) != 1 {
				return true
			}
			if v := escapingAccumulator(pass, as.Lhs[0], rs); v != nil && isFloat(v.Type()) {
				pass.Reportf(as.Pos(),
					"float accumulation into %q inside range over map: result depends on map iteration order; iterate over sorted keys", v.Name())
			}
		case token.ASSIGN:
			for i, lhs := range as.Lhs {
				if i >= len(as.Rhs) {
					break
				}
				v := escapingAccumulator(pass, lhs, rs)
				if v == nil {
					continue
				}
				if isSelfAppend(pass, as.Rhs[i], v) {
					switch first, byElem := sortAfter(sorted, v, rs.End()); {
					case first == token.NoPos:
						pass.Reportf(as.Pos(),
							"append to %q inside range over map: element order follows map iteration order; sort %q afterwards or iterate over sorted keys", v.Name(), v.Name())
					case !byElem && appendsKey(pass, as.Rhs[i], rs):
						pass.Reportf(first,
							"sort of map keys in %q does not end its comparator on the keys: keys that compare equal keep map iteration order; break ties on the keys themselves", v.Name())
					}
				} else if isFloat(v.Type()) && isSelfArithmetic(pass, as.Rhs[i], v) {
					pass.Reportf(as.Pos(),
						"float accumulation into %q inside range over map: result depends on map iteration order; iterate over sorted keys", v.Name())
				}
			}
		}
		return true
	})
}

// escapingAccumulator resolves lhs to a plain variable declared outside
// the range statement, i.e. one that survives the loop. Indexed or
// field targets (m[k] = ..., s.f += ...) are keyed per element and left
// alone.
func escapingAccumulator(pass *Pass, lhs ast.Expr, rs *ast.RangeStmt) *types.Var {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return nil
	}
	v := useObj(pass.Info, id)
	if v == nil || declaredWithin(v, rs.Pos(), rs.End()) {
		return nil
	}
	return v
}

// isSelfAppend reports whether rhs is append(v, ...).
func isSelfAppend(pass *Pass, rhs ast.Expr, v *types.Var) bool {
	call, ok := rhs.(*ast.CallExpr)
	if !ok || len(call.Args) == 0 {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	if b, ok := pass.Info.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	arg, ok := call.Args[0].(*ast.Ident)
	return ok && useObj(pass.Info, arg) == v
}

// appendsKey reports whether the append call rhs appends rs's key.
func appendsKey(pass *Pass, rhs ast.Expr, rs *ast.RangeStmt) bool {
	key, ok := rs.Key.(*ast.Ident)
	if !ok || pass.Info.ObjectOf(key) == nil {
		return false
	}
	return slices.ContainsFunc(rhs.(*ast.CallExpr).Args[1:], func(arg ast.Expr) bool {
		id, ok := arg.(*ast.Ident)
		return ok && pass.Info.Uses[id] == pass.Info.ObjectOf(key)
	})
}

// isSelfArithmetic reports whether rhs is a binary +,-,*,/ expression
// with v as one operand (the `x = x + y` spelling of accumulation).
func isSelfArithmetic(pass *Pass, rhs ast.Expr, v *types.Var) bool {
	bin, ok := rhs.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch bin.Op {
	case token.ADD, token.SUB, token.MUL, token.QUO:
	default:
		return false
	}
	for _, side := range [2]ast.Expr{bin.X, bin.Y} {
		if id, ok := side.(*ast.Ident); ok && useObj(pass.Info, id) == v {
			return true
		}
	}
	return false
}
