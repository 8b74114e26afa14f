package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// Durable returns the durability-ordering analyzer. Rules:
//
//   - "durable": in a function marked //raqo:ack, a durable write —
//     a Commit/Sync method call, or Append/AppendBatch on a journal — must dominate
//     every path reaching an acknowledgement (an HTTP 2xx write or a
//     `return nil` success). The check is a forward must-dataflow over
//     the CFG with one refinement: the `if x != nil { x.Commit() ... }`
//     guard counts as durable on its nil edge too, because an absent
//     journal/history imposes no durability obligation. Also under this
//     rule: in the durability-owning packages, the error of a bare
//     f.Close()/f.Sync() on an *os.File may not be discarded unless the
//     very next statement returns an error (the error-path cleanup
//     idiom, where the original failure is already on its way out).
//   - "ackmark": a function in internal/server that both performs a
//     durable write and writes an HTTP success must carry //raqo:ack, so
//     the ordering invariant cannot silently rot when handlers change.
//
// This is the journal-before-ack invariant of PR 4/7 as a machine check:
// an acknowledged observation must survive kill -9.
func Durable() *Analyzer {
	return &Analyzer{
		Name:  "durable",
		Doc:   "//raqo:ack functions must make writes durable before acknowledging them",
		Rules: []string{"durable", "ackmark"},
		Run:   runDurable,
	}
}

// ackMarker marks functions whose durable-before-ack ordering is checked.
const ackMarker = "//raqo:ack"

// closeScopes are the packages owning durable files, where a discarded
// Close/Sync error can silently lose acknowledged bytes.
var closeScopes = []string{"internal/history", "internal/feedback"}

// ackmarkScopes are the packages whose HTTP handlers acknowledge durable
// writes and therefore must be annotated.
var ackmarkScopes = []string{"internal/server"}

func runDurable(p *Package) []Finding {
	sw := successWriters(p)
	var out []Finding
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			marked := hasMarker(fd.Doc, ackMarker)
			if marked {
				out = append(out, checkAckOrdering(p, fd, sw)...)
			} else if inScope(p.Path, ackmarkScopes...) && looksLikeAckPath(p, fd, sw) {
				out = append(out, p.finding("ackmark", fd.Name,
					"%s performs durable writes and acknowledges success; mark it //raqo:ack so the write-before-ack ordering stays checked", fd.Name.Name))
			}
			if marked || inScope(p.Path, closeScopes...) {
				out = append(out, checkDiscardedClose(p, fd)...)
			}
		}
	}
	return out
}

// hasMarker reports whether a doc comment contains the given //raqo:
// directive line.
func hasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == marker || strings.HasPrefix(c.Text, marker+" ") {
			return true
		}
	}
	return false
}

// isDurableCall recognizes the durable-write primitives: any Commit or
// Sync method call, and Append or AppendBatch on a receiver whose type
// name contains "Journal".
func isDurableCall(p *Package, call *ast.CallExpr) bool {
	sel, ok := stripParens(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch sel.Sel.Name {
	case "Commit", "Sync":
		// Must be a method (not a package-qualified function).
		return p.pkgPathOf(sel.X) == "" && p.Info.Types[sel.X].Type != nil
	case "Append", "AppendBatch":
		tv, ok := p.Info.Types[sel.X]
		if !ok || tv.Type == nil {
			return false
		}
		t := tv.Type
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		return ok && strings.Contains(named.Obj().Name(), "Journal")
	}
	return false
}

// durableReceiverOf returns the rendered receiver expression of a durable
// call ("s.hist" for s.hist.Commit()), for matching against nil guards.
func durableReceiverOf(call *ast.CallExpr) string {
	sel, ok := stripParens(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	return types.ExprString(sel.X)
}

// nilGuards collects the conditions of `if x != nil { ... }` statements
// whose then-branch performs a durable call on x. On such a condition's
// false edge durability is vacuously satisfied: with no journal or
// history attached there is nothing to make durable.
func nilGuards(p *Package, body *ast.BlockStmt) map[ast.Expr]bool {
	guards := map[ast.Expr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		bin, ok := stripParens(ifs.Cond).(*ast.BinaryExpr)
		if !ok || bin.Op != token.NEQ {
			return true
		}
		var subject ast.Expr
		if isNilIdent(bin.Y) {
			subject = bin.X
		} else if isNilIdent(bin.X) {
			subject = bin.Y
		} else {
			return true
		}
		want := types.ExprString(stripParens(subject))
		found := false
		ast.Inspect(ifs.Body, func(m ast.Node) bool {
			if call, ok := m.(*ast.CallExpr); ok && isDurableCall(p, call) &&
				durableReceiverOf(call) == want {
				found = true
			}
			return !found
		})
		if found {
			guards[ifs.Cond] = true
		}
		return true
	})
	return guards
}

func isNilIdent(e ast.Expr) bool {
	id, ok := stripParens(e).(*ast.Ident)
	return ok && id.Name == "nil"
}

// durableFlow is the single-bit must-analysis: true iff a durable write
// has happened on every path so far.
type durableFlow struct {
	p      *Package
	guards map[ast.Expr]bool
}

func (a *durableFlow) EntryFact() any { return false }

func (a *durableFlow) Transfer(f any, n ast.Node) any {
	if f.(bool) {
		return true
	}
	// Deferred durability is not durability: a deferred Commit runs after
	// the ack has left the building.
	if _, ok := n.(*ast.DeferStmt); ok {
		return f
	}
	if _, ok := n.(*ast.GoStmt); ok {
		return f
	}
	done := false
	shallowWalk(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := x.(*ast.CallExpr); ok && isDurableCall(a.p, call) {
			done = true
		}
		return !done
	})
	return done
}

func (a *durableFlow) TransferEdge(f any, e Edge) any {
	if f.(bool) {
		return true
	}
	if a.guards[e.Cond] && !e.Branch {
		return true
	}
	return f
}

func (a *durableFlow) Meet(x, y any) any   { return x.(bool) && y.(bool) }
func (a *durableFlow) Equal(x, y any) bool { return x.(bool) == y.(bool) }

// checkAckOrdering runs the durable dataflow over one //raqo:ack function
// and reports every acknowledgement not dominated by a durable write.
func checkAckOrdering(p *Package, fd *ast.FuncDecl, sw map[types.Object]bool) []Finding {
	cfg := buildCFG(fd.Body)
	a := &durableFlow{p: p, guards: nilGuards(p, fd.Body)}
	in := solve(cfg, a)

	errResult := lastResultIsError(p, fd)
	var out []Finding
	visitFacts(cfg, a, in, func(f any, n ast.Node) {
		// The node's own durable calls happen before its ack takes
		// effect (`return s.f.Sync()` is write-then-ack in one node).
		after := a.Transfer(f, n).(bool)
		if after {
			return
		}
		if ack, what := ackIn(p, n, sw, errResult); ack {
			out = append(out, p.finding("durable", n,
				"%s in //raqo:ack %s is reachable without a durable write on some path; journal or commit before acknowledging", what, fd.Name.Name))
		}
	})
	return out
}

// ackIn reports whether a node acknowledges success: a 2xx WriteHeader, a
// call to a success-writing helper with a ResponseWriter argument, or a
// `return nil` from an error-returning function.
func ackIn(p *Package, n ast.Node, sw map[types.Object]bool, errResult bool) (bool, string) {
	if ret, ok := n.(*ast.ReturnStmt); ok && errResult {
		if len(ret.Results) > 0 && isNilIdent(ret.Results[len(ret.Results)-1]) {
			return true, "success return"
		}
		return false, ""
	}
	found := ""
	shallowWalk(n, func(x ast.Node) bool {
		if found != "" {
			return false
		}
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		if is2xxWriteHeader(p, call) {
			found = "HTTP 2xx write"
			return true
		}
		if obj := calleeObject(p, call.Fun); obj != nil && sw[obj] && callPassesWriter(p, call) {
			found = "HTTP success write"
		}
		return true
	})
	return found != "", found
}

// lastResultIsError reports whether fd's final result is an error.
func lastResultIsError(p *Package, fd *ast.FuncDecl) bool {
	if fd.Type.Results == nil || len(fd.Type.Results.List) == 0 {
		return false
	}
	last := fd.Type.Results.List[len(fd.Type.Results.List)-1]
	tv, ok := p.Info.Types[last.Type]
	return ok && tv.Type != nil && tv.Type.String() == "error"
}

// is2xxWriteHeader matches w.WriteHeader(c) with a constant 2xx code on
// an http.ResponseWriter.
func is2xxWriteHeader(p *Package, call *ast.CallExpr) bool {
	sel, ok := stripParens(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "WriteHeader" || len(call.Args) != 1 {
		return false
	}
	tv, ok := p.Info.Types[sel.X]
	if !ok || !isResponseWriter(tv.Type) {
		return false
	}
	code, ok := constIntValue(p, call.Args[0])
	return ok && code >= 200 && code < 300
}

// constIntValue evaluates an expression to a compile-time integer.
func constIntValue(p *Package, e ast.Expr) (int64, bool) {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v, err := strconv.ParseInt(tv.Value.ExactString(), 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// isResponseWriter reports whether t is net/http.ResponseWriter.
func isResponseWriter(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "ResponseWriter" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}

// isWriterish reports whether t can carry an HTTP response body: the
// ResponseWriter itself or a plain io.Writer (helpers like WriteJSON take
// the narrower interface).
func isWriterish(t types.Type) bool {
	if isResponseWriter(t) {
		return true
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Writer" && obj.Pkg() != nil && obj.Pkg().Path() == "io"
}

// successWriters classifies the package's functions: the objects whose
// call with a ResponseWriter means "a success response went out". A
// function qualifies when it writes the response body (w.Write, a
// fmt.Fprint into w, a json encoder on w, or calling another success
// writer) without ever setting a non-2xx or variable status —
// writeError-style helpers never qualify, writeResult-style ones do.
func successWriters(p *Package) map[types.Object]bool {
	sw := map[types.Object]bool{}
	type cand struct {
		fd  *ast.FuncDecl
		obj types.Object
	}
	var cands []cand
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := p.Info.Defs[fd.Name]
			if obj == nil || !funcTakesWriter(p, fd) {
				continue
			}
			cands = append(cands, cand{fd, obj})
		}
	}
	// Fixpoint: writeResult -> WriteJSON chains converge in a pass or two.
	for changed := true; changed; {
		changed = false
		for _, c := range cands {
			if sw[c.obj] {
				continue
			}
			if classifySuccessWriter(p, c.fd, sw) {
				sw[c.obj] = true
				changed = true
			}
		}
	}
	return sw
}

// funcTakesWriter reports whether fd has a ResponseWriter or io.Writer
// parameter.
func funcTakesWriter(p *Package, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, f := range fd.Type.Params.List {
		if tv, ok := p.Info.Types[f.Type]; ok && tv.Type != nil && isWriterish(tv.Type) {
			return true
		}
	}
	return false
}

// classifySuccessWriter decides whether fd writes a success response.
func classifySuccessWriter(p *Package, fd *ast.FuncDecl, sw map[types.Object]bool) bool {
	writesBody := false
	badStatus := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := stripParens(call.Fun).(*ast.SelectorExpr); ok {
			tv, hasType := p.Info.Types[sel.X]
			switch sel.Sel.Name {
			case "WriteHeader":
				if hasType && isResponseWriter(tv.Type) {
					if code, ok := constIntValue(p, call.Args[0]); !ok || code < 200 || code >= 300 {
						badStatus = true
					} else {
						writesBody = true
					}
				}
			case "Write", "WriteString":
				if hasType && isWriterish(tv.Type) {
					writesBody = true
				}
			case "Fprint", "Fprintf", "Fprintln":
				if p.pkgPathOf(sel.X) == "fmt" && len(call.Args) > 0 {
					if atv, ok := p.Info.Types[call.Args[0]]; ok && isWriterish(atv.Type) {
						writesBody = true
					}
				}
			case "NewEncoder":
				if p.pkgPathOf(sel.X) == "json" || p.pkgPathOf(sel.X) == "encoding/json" {
					writesBody = true
				}
			}
		}
		if obj := calleeObject(p, call.Fun); obj != nil && sw[obj] && callPassesWriter(p, call) {
			writesBody = true
		}
		return true
	})
	return writesBody && !badStatus
}

// callPassesWriter reports whether any argument of the call is a
// ResponseWriter or io.Writer value.
func callPassesWriter(p *Package, call *ast.CallExpr) bool {
	for _, a := range call.Args {
		if tv, ok := p.Info.Types[a]; ok && tv.Type != nil && isWriterish(tv.Type) {
			return true
		}
	}
	return false
}

// looksLikeAckPath reports whether an unannotated function both performs
// a durable write and acknowledges success over HTTP — the shape that
// must carry //raqo:ack.
func looksLikeAckPath(p *Package, fd *ast.FuncDecl, sw map[types.Object]bool) bool {
	durable := false
	acks := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isDurableCall(p, call) {
			durable = true
		}
		if is2xxWriteHeader(p, call) {
			acks = true
		}
		if obj := calleeObject(p, call.Fun); obj != nil && sw[obj] && callPassesWriter(p, call) {
			acks = true
		}
		return true
	})
	return durable && acks
}

// checkDiscardedClose flags a bare f.Close()/f.Sync() statement on an
// *os.File whose error vanishes. The error-path cleanup idiom — a bare
// Close immediately followed by returning a non-nil error — is exempt:
// the write already failed and that error is the one being reported. A
// close followed by `return nil` is NOT exempt; that is precisely the
// shape that acknowledges success while discarding the flush error.
func checkDiscardedClose(p *Package, fd *ast.FuncDecl) []Finding {
	var out []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		blk, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, s := range blk.List {
			es, ok := s.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := stripParens(es.X).(*ast.CallExpr)
			if !ok {
				continue
			}
			sel, ok := stripParens(call.Fun).(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Close" && sel.Sel.Name != "Sync") || len(call.Args) != 0 {
				continue
			}
			tv, ok := p.Info.Types[sel.X]
			if !ok || !isOSFile(tv.Type) {
				continue
			}
			if i+1 < len(blk.List) {
				if ret, isRet := blk.List[i+1].(*ast.ReturnStmt); isRet && returnsNonNilError(p, ret) {
					continue // error-path cleanup: the original error returns next
				}
			}
			out = append(out, p.finding("durable", es,
				"error from %s.%s is discarded; on a durable file that can silently lose acknowledged bytes", types.ExprString(sel.X), sel.Sel.Name))
		}
		return true
	})
	return out
}

// returnsNonNilError reports whether a return's final result is
// statically a non-nil error: a plain non-nil identifier (`return err`)
// or an error-constructor call (fmt.Errorf, errors.New, errors.Join),
// which never yield nil. Those are the error-path cleanup shapes. A
// `return nil` — or a call that may return nil, like `return f.Close()`
// after a bare Sync — still discards the earlier close/sync error, so
// neither earns the exemption.
func returnsNonNilError(p *Package, ret *ast.ReturnStmt) bool {
	if len(ret.Results) == 0 {
		return false
	}
	switch last := stripParens(ret.Results[len(ret.Results)-1]).(type) {
	case *ast.Ident:
		return last.Name != "nil"
	case *ast.CallExpr:
		sel, ok := stripParens(last.Fun).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		switch p.pkgPathOf(sel.X) {
		case "fmt":
			return sel.Sel.Name == "Errorf"
		case "errors":
			return sel.Sel.Name == "New" || sel.Sel.Name == "Join"
		}
	}
	return false
}

// isOSFile reports whether t is *os.File.
func isOSFile(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "File" && obj.Pkg() != nil && obj.Pkg().Path() == "os"
}
