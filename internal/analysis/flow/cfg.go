package flow

import (
	"go/ast"
)

// CFG is a per-function control-flow graph: basic blocks of statements
// in execution order, linked by successor edges. It is deliberately
// statement-granular (conditions are not split out of their owning
// statements): the engine's clients use it for path questions like "is
// a lock still held when this call runs", which only need statement
// ordering and branching, not expression-level flow.
//
// Modelling notes: `goto` produces a conservative edge to the function
// exit (no client reasons across a goto); `fallthrough` links a switch
// case to the next case body; defer statements appear as ordinary
// statements in their lexical position (clients that care about defers
// scan for them explicitly, since their execution point is function
// exit).
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// Block is one straight-line statement sequence.
type Block struct {
	Stmts []ast.Stmt
	Succs []*Block
}

// CFG returns the control-flow graph of fn's body, building and
// caching it on first use.
func (e *Engine) CFG(fi *FuncInfo) *CFG {
	if fi == nil {
		return nil
	}
	if fi.cfg == nil {
		fi.cfg = buildCFG(fi.Decl.Body)
	}
	return fi.cfg
}

type cfgBuilder struct {
	g   *CFG
	cur *Block
	// break/continue targets, innermost last; label maps a labeled
	// loop/switch statement to its targets.
	breaks    []*Block
	continues []*Block
	labels    map[string]*labelTarget
}

type labelTarget struct {
	brk  *Block
	cont *Block
}

func buildCFG(body *ast.BlockStmt) *CFG {
	g := &CFG{}
	b := &cfgBuilder{g: g, labels: map[string]*labelTarget{}}
	g.Entry = b.newBlock()
	g.Exit = b.newBlock()
	b.cur = g.Entry
	b.stmtList(body.List, "")
	b.link(b.cur, g.Exit)
	return g
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *cfgBuilder) link(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// stmtList appends stmts to the current block, splitting at control
// flow. label names the enclosing LabeledStmt when the first statement
// is a loop/switch, so labeled break/continue resolve.
func (b *cfgBuilder) stmtList(stmts []ast.Stmt, label string) {
	for _, s := range stmts {
		b.stmt(s, label)
		label = ""
	}
}

func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List, "")
	case *ast.LabeledStmt:
		b.labels[s.Label.Name] = &labelTarget{}
		b.stmt(s.Stmt, s.Label.Name)
	case *ast.IfStmt:
		if s.Init != nil {
			b.cur.Stmts = append(b.cur.Stmts, s.Init)
		}
		b.cur.Stmts = append(b.cur.Stmts, s) // condition evaluates here
		head := b.cur
		join := b.newBlock()
		b.cur = b.newBlock()
		b.link(head, b.cur)
		b.stmtList(s.Body.List, "")
		b.link(b.cur, join)
		if s.Else != nil {
			b.cur = b.newBlock()
			b.link(head, b.cur)
			b.stmt(s.Else, "")
			b.link(b.cur, join)
		} else {
			b.link(head, join)
		}
		b.cur = join
	case *ast.ForStmt:
		if s.Init != nil {
			b.cur.Stmts = append(b.cur.Stmts, s.Init)
		}
		head := b.newBlock()
		exit := b.newBlock()
		b.link(b.cur, head)
		head.Stmts = append(head.Stmts, s) // condition evaluates here
		if s.Cond != nil {
			b.link(head, exit)
		}
		b.pushLoop(label, exit, head)
		b.cur = b.newBlock()
		b.link(head, b.cur)
		b.stmtList(s.Body.List, "")
		if s.Post != nil {
			b.cur.Stmts = append(b.cur.Stmts, s.Post)
		}
		b.link(b.cur, head)
		b.popLoop()
		b.cur = exit
	case *ast.RangeStmt:
		head := b.newBlock()
		exit := b.newBlock()
		b.link(b.cur, head)
		head.Stmts = append(head.Stmts, s)
		b.link(head, exit) // ranges can be empty
		b.pushLoop(label, exit, head)
		b.cur = b.newBlock()
		b.link(head, b.cur)
		b.stmtList(s.Body.List, "")
		b.link(b.cur, head)
		b.popLoop()
		b.cur = exit
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		b.switchLike(s, label)
	case *ast.ReturnStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		b.link(b.cur, b.g.Exit)
		b.cur = b.newBlock() // unreachable continuation
	case *ast.BranchStmt:
		b.cur.Stmts = append(b.cur.Stmts, s)
		b.branch(s)
		b.cur = b.newBlock() // unreachable continuation
	default:
		// Plain statement (incl. defer, go, expr, assign, decl).
		b.cur.Stmts = append(b.cur.Stmts, s)
	}
}

// switchLike lowers switch / type switch / select: every clause body is
// a successor of the head, all clauses join afterwards, break targets
// the join, fallthrough chains to the next case body.
func (b *cfgBuilder) switchLike(s ast.Stmt, label string) {
	var init ast.Stmt
	var clauses []ast.Stmt
	hasDefault := false
	switch s := s.(type) {
	case *ast.SwitchStmt:
		init = s.Init
		clauses = s.Body.List
	case *ast.TypeSwitchStmt:
		init = s.Init
		clauses = s.Body.List
	case *ast.SelectStmt:
		clauses = s.Body.List
	}
	if init != nil {
		b.cur.Stmts = append(b.cur.Stmts, init)
	}
	b.cur.Stmts = append(b.cur.Stmts, s) // tag/comm evaluation point
	head := b.cur
	join := b.newBlock()
	if lt := b.labels[label]; lt != nil {
		lt.brk = join
	}
	b.breaks = append(b.breaks, join)
	bodies := make([]*Block, len(clauses))
	for i := range clauses {
		bodies[i] = b.newBlock()
		b.link(head, bodies[i])
	}
	for i, clause := range clauses {
		var list []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			list = c.Body
			if c.List == nil {
				hasDefault = true
			}
		case *ast.CommClause:
			if c.Comm != nil {
				bodies[i].Stmts = append(bodies[i].Stmts, c.Comm)
			} else {
				hasDefault = true
			}
			list = c.Body
		}
		b.cur = bodies[i]
		// fallthrough chains to the next body; detect it so the edge
		// lands on the case body, not the join.
		fallsThrough := false
		if n := len(list); n > 0 {
			if br, ok := list[n-1].(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
				fallsThrough = true
				list = list[:n-1]
			}
		}
		b.stmtList(list, "")
		if fallsThrough && i+1 < len(bodies) {
			b.link(b.cur, bodies[i+1])
		} else {
			b.link(b.cur, join)
		}
	}
	if !hasDefault {
		b.link(head, join)
	}
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.cur = join
}

func (b *cfgBuilder) pushLoop(label string, brk, cont *Block) {
	b.breaks = append(b.breaks, brk)
	b.continues = append(b.continues, cont)
	if lt := b.labels[label]; lt != nil {
		lt.brk, lt.cont = brk, cont
	}
}

func (b *cfgBuilder) popLoop() {
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.continues = b.continues[:len(b.continues)-1]
}

func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	switch s.Tok.String() {
	case "break":
		if s.Label != nil {
			if lt := b.labels[s.Label.Name]; lt != nil && lt.brk != nil {
				b.link(b.cur, lt.brk)
				return
			}
		}
		if n := len(b.breaks); n > 0 {
			b.link(b.cur, b.breaks[n-1])
			return
		}
		b.link(b.cur, b.g.Exit)
	case "continue":
		if s.Label != nil {
			if lt := b.labels[s.Label.Name]; lt != nil && lt.cont != nil {
				b.link(b.cur, lt.cont)
				return
			}
		}
		if n := len(b.continues); n > 0 {
			b.link(b.cur, b.continues[n-1])
			return
		}
		b.link(b.cur, b.g.Exit)
	case "goto":
		// Conservative: model goto as function exit (see package doc).
		b.link(b.cur, b.g.Exit)
	case "fallthrough":
		// Handled by switchLike; a stray fallthrough falls to exit.
		b.link(b.cur, b.g.Exit)
	}
}
