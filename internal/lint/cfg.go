package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// This file builds intra-procedural control-flow graphs from go/ast
// function bodies. Blocks hold only "simple" nodes — plain statements and
// the condition/tag expressions of compound statements — so an analyzer's
// transfer function can walk a node with shallowWalk and never see a
// nested statement body twice.
//
// The graph is deliberately modest: intra-procedural, no goto resolution
// (a goto conservatively exits the function), and deferred calls stay in
// place as DeferStmt nodes for the analyzers to interpret (the locks
// analyzer treats `defer mu.Unlock()` as keeping mu held to the end of
// every path, which is exactly the semantics the annotation needs).

// Block is one basic block: simple nodes in execution order plus the
// blocks control can go to next.
type Block struct {
	Nodes []ast.Node
	Succs []*Block
}

// CFG is the control-flow graph of one function body.
type CFG struct {
	Entry  *Block
	Exit   *Block // every return, panic and fall-off-the-end reaches here
	Blocks []*Block
}

// cfgBuilder tracks the block under construction and the break/continue
// targets of the enclosing loops and switches.
type cfgBuilder struct {
	cfg    *CFG
	cur    *Block // nil when control cannot reach the next statement
	frames []frame
}

// frame is one enclosing breakable construct. cont is nil for switch and
// select frames, which break but do not continue.
type frame struct {
	label string
	brk   *Block
	cont  *Block
}

// buildCFG constructs the CFG of a function body.
func buildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = &Block{}
	b.cur = b.cfg.Entry
	b.stmts(body.List)
	if b.cur != nil {
		b.edge(b.cur, b.cfg.Exit)
	}
	b.cfg.Blocks = append(b.cfg.Blocks, b.cfg.Exit)
	return b.cfg
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
}

// add appends a simple node to the current block, opening an unreachable
// block if control cannot get here (dead code stays in the graph but with
// no predecessors, so the solver never visits it).
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) stmts(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt translates one statement. label is the pending label when the
// statement is the body of a LabeledStmt.
func (b *cfgBuilder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.LabeledStmt:
		b.stmt(s.Stmt, s.Label.Name)
	case *ast.BlockStmt:
		b.stmts(s.List)
	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.cur, b.cfg.Exit)
		b.cur = nil
	case *ast.BranchStmt:
		b.branch(s)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, label)
	case *ast.RangeStmt:
		b.rangeStmt(s, label)
	case *ast.SwitchStmt:
		b.switchStmt(s, label)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, label)
	case *ast.SelectStmt:
		b.selectStmt(s, label)
	case *ast.EmptyStmt:
		// nothing
	default:
		// ExprStmt, AssignStmt, DeclStmt, IncDecStmt, SendStmt, GoStmt,
		// DeferStmt: simple nodes.
		b.add(s)
		if es, ok := s.(*ast.ExprStmt); ok && isNoReturnCall(es.X) {
			b.edge(b.cur, b.cfg.Exit)
			b.cur = nil
		}
	}
}

// branch resolves break/continue against the frame stack; goto exits the
// function conservatively (no goto exists on the linted paths today).
func (b *cfgBuilder) branch(s *ast.BranchStmt) {
	b.add(s)
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if label == "" || f.label == label {
				b.edge(b.cur, f.brk)
				b.cur = nil
				return
			}
		}
	case token.CONTINUE:
		for i := len(b.frames) - 1; i >= 0; i-- {
			f := b.frames[i]
			if f.cont != nil && (label == "" || f.label == label) {
				b.edge(b.cur, f.cont)
				b.cur = nil
				return
			}
		}
	case token.FALLTHROUGH:
		// The switch construction wires the edge; leave the block open.
		return
	}
	// goto, or an unmatched label: conservatively leave the function.
	b.edge(b.cur, b.cfg.Exit)
	b.cur = nil
}

func (b *cfgBuilder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond)
	cond := b.cur
	then := b.newBlock()
	b.edge(cond, then)
	b.cur = then
	b.stmts(s.Body.List)
	thenEnd := b.cur

	if s.Else == nil {
		merge := b.newBlock()
		b.edge(cond, merge)
		if thenEnd != nil {
			b.edge(thenEnd, merge)
		}
		b.cur = merge
		return
	}
	elseEntry := b.newBlock()
	b.edge(cond, elseEntry)
	b.cur = elseEntry
	b.stmt(s.Else, "")
	elseEnd := b.cur
	if thenEnd == nil && elseEnd == nil {
		b.cur = nil
		return
	}
	merge := b.newBlock()
	if thenEnd != nil {
		b.edge(thenEnd, merge)
	}
	if elseEnd != nil {
		b.edge(elseEnd, merge)
	}
	b.cur = merge
}

func (b *cfgBuilder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	head := b.newBlock()
	b.edge(b.cur, head)
	b.cur = head
	if s.Cond != nil {
		b.add(s.Cond)
	}
	condEnd := b.cur // adding the cond may not split, but stay general

	after := b.newBlock()
	// continue retargets through the post statement when there is one.
	cont := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock()
		cont = post
	}

	body := b.newBlock()
	b.edge(condEnd, body)
	if s.Cond != nil {
		b.edge(condEnd, after)
	}

	b.frames = append(b.frames, frame{label: label, brk: after, cont: cont})
	b.cur = body
	b.stmts(s.Body.List)
	b.frames = b.frames[:len(b.frames)-1]

	if b.cur != nil {
		b.edge(b.cur, cont)
	}
	if post != nil {
		b.cur = post
		b.add(s.Post)
		b.edge(b.cur, head)
	}
	b.cur = after
}

func (b *cfgBuilder) rangeStmt(s *ast.RangeStmt, label string) {
	// The ranged expression is evaluated once, before the loop; the
	// RangeStmt node itself sits in the loop head so per-iteration
	// key/value bindings are visible there (shallowWalk stops at Body).
	b.add(s.X)
	head := b.newBlock()
	b.edge(b.cur, head)
	head.Nodes = append(head.Nodes, s)

	after := b.newBlock()
	body := b.newBlock()
	b.edge(head, body)
	b.edge(head, after)

	b.frames = append(b.frames, frame{label: label, brk: after, cont: head})
	b.cur = body
	b.stmts(s.Body.List)
	b.frames = b.frames[:len(b.frames)-1]

	if b.cur != nil {
		b.edge(b.cur, head)
	}
	b.cur = after
}

func (b *cfgBuilder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	dispatch := b.cur
	after := b.newBlock()

	var clauses []*ast.CaseClause
	for _, c := range s.Body.List {
		clauses = append(clauses, c.(*ast.CaseClause))
	}
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		// Case expressions are evaluated in the dispatch block; the
		// short-circuit order is over-approximated as "all evaluated".
		for _, e := range c.List {
			dispatch.Nodes = append(dispatch.Nodes, e)
		}
		if c.List == nil {
			hasDefault = true
		}
		bodies[i] = b.newBlock()
		b.edge(dispatch, bodies[i])
	}
	if !hasDefault {
		b.edge(dispatch, after)
	}

	b.frames = append(b.frames, frame{label: label, brk: after})
	for i, c := range clauses {
		b.cur = bodies[i]
		list := c.Body
		ft := false
		if n := len(list); n > 0 {
			if br, ok := list[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				ft = true
			}
		}
		b.stmts(list)
		if b.cur != nil {
			if ft && i+1 < len(bodies) {
				b.edge(b.cur, bodies[i+1])
			} else {
				b.edge(b.cur, after)
			}
		}
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

func (b *cfgBuilder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Assign)
	dispatch := b.cur
	after := b.newBlock()

	hasDefault := false
	b.frames = append(b.frames, frame{label: label, brk: after})
	for _, raw := range s.Body.List {
		c := raw.(*ast.CaseClause)
		if c.List == nil {
			hasDefault = true
		}
		body := b.newBlock()
		b.edge(dispatch, body)
		b.cur = body
		b.stmts(c.Body)
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.frames = b.frames[:len(b.frames)-1]
	if !hasDefault {
		b.edge(dispatch, after)
	}
	b.cur = after
}

func (b *cfgBuilder) selectStmt(s *ast.SelectStmt, label string) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	dispatch := b.cur
	after := b.newBlock()

	b.frames = append(b.frames, frame{label: label, brk: after})
	for _, raw := range s.Body.List {
		c := raw.(*ast.CommClause)
		body := b.newBlock()
		b.edge(dispatch, body)
		b.cur = body
		if c.Comm != nil {
			b.add(c.Comm)
		}
		b.stmts(c.Body)
		if b.cur != nil {
			b.edge(b.cur, after)
		}
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = after
}

// isNoReturnCall recognizes calls that never return: the panic builtin,
// os.Exit, and the log/testing Fatal family. Syntactic on purpose — a
// shadowed `panic` would be exotic enough to deserve its false edge.
func isNoReturnCall(e ast.Expr) bool {
	call, ok := stripParens(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	switch fun := stripParens(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok && id.Name == "os" && fun.Sel.Name == "Exit" {
			return true
		}
		return strings.HasPrefix(fun.Sel.Name, "Fatal")
	}
	return false
}

// shallowWalk visits the expressions of one CFG node without descending
// into nested statement bodies or function literals. Compound statements
// never appear as nodes (their pieces are split across blocks); the two
// exceptions are RangeStmt (its Key/Value/Tok bindings live in the loop
// head, its Body in successor blocks) and the statements carried by
// go/defer, whose function-literal bodies run elsewhere. fn may return
// false to prune the walk below a subtree.
func shallowWalk(n ast.Node, fn func(ast.Node) bool) {
	if n == nil {
		return
	}
	if r, ok := n.(*ast.RangeStmt); ok {
		shallowWalk(r.Key, fn)
		shallowWalk(r.Value, fn)
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		if x == nil {
			return false
		}
		if !fn(x) {
			return false
		}
		if fl, ok := x.(*ast.FuncLit); ok && fl != n {
			return false
		}
		return true
	})
}
