package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Leak returns the goroutine-leak analyzer (rule "leak"): every `go`
// statement must launch a function that observes a shutdown signal on
// some path — a context.Context, a channel operation (the done-channel
// and errc idioms, including closing one), or a sync.WaitGroup. A
// goroutine with none of these has no way to learn the component it
// belongs to is draining: in a long-running `raqo serve` process that is
// a leak, and in the bounded worker pools it is a missing wg.Done that
// would hang the join.
//
// The launched body is resolved for function literals and same-package
// functions; a goroutine launching an external function is judged by its
// arguments (passing a context or channel in counts as observing it).
func Leak() *Analyzer {
	return &Analyzer{
		Name:  "leak",
		Doc:   "go statements must observe a context, done channel, or WaitGroup so shutdown can reach them",
		Rules: []string{"leak"},
		Run:   runLeak,
	}
}

func runLeak(p *Package) []Finding {
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if leakObserved(p, gs) {
				return true
			}
			out = append(out, p.finding("leak", gs,
				"goroutine observes no context, channel, or WaitGroup; give it a shutdown signal so it cannot outlive its component"))
			return true
		})
	}
	return out
}

// leakObserved reports whether the launched function observes any
// cancellation signal.
func leakObserved(p *Package, gs *ast.GoStmt) bool {
	call := gs.Call
	var body *ast.BlockStmt
	switch fun := stripParens(call.Fun).(type) {
	case *ast.FuncLit:
		body = fun.Body
	default:
		if obj := calleeObject(p, call.Fun); obj != nil {
			if fd := p.funcDeclOf(obj); fd != nil {
				body = fd.Body
			}
		}
	}
	if body == nil {
		// External callee: the arguments are all we can see.
		for _, a := range call.Args {
			if tv, ok := p.Info.Types[a]; ok && signalType(tv.Type) {
				return true
			}
		}
		return false
	}
	return bodyObservesSignal(p, body)
}

// calleeObject resolves the object of a plain or selector callee.
func calleeObject(p *Package, fun ast.Expr) types.Object {
	switch f := stripParens(fun).(type) {
	case *ast.Ident:
		return p.Info.Uses[f]
	case *ast.SelectorExpr:
		return p.Info.Uses[f.Sel]
	}
	return nil
}

// signalType reports whether t can carry a shutdown signal: a context, a
// channel, or a WaitGroup.
func signalType(t types.Type) bool {
	if t == nil {
		return false
	}
	if isContextType(t) {
		return true
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if _, ok := t.Underlying().(*types.Chan); ok {
		return true
	}
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
	}
	return false
}

// bodyObservesSignal scans a launched function body (including nested
// literals it calls synchronously) for any cancellation observation:
// using a context value, sending/receiving/closing/selecting on a
// channel, ranging over a channel, or touching a WaitGroup.
func bodyObservesSignal(p *Package, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.Ident:
			if obj := p.Info.Uses[x]; obj != nil && isContextType(obj.Type()) {
				found = true
			}
		case *ast.SendStmt, *ast.SelectStmt:
			found = true
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := p.Info.Types[x.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					found = true
				}
			}
		case *ast.CallExpr:
			if id, ok := stripParens(x.Fun).(*ast.Ident); ok && id.Name == "close" && len(x.Args) == 1 {
				found = true
			}
			if sel, ok := stripParens(x.Fun).(*ast.SelectorExpr); ok {
				if tv, ok := p.Info.Types[sel.X]; ok && isWaitGroup(tv.Type) &&
					(sel.Sel.Name == "Done" || sel.Sel.Name == "Wait" || sel.Sel.Name == "Add") {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "context")
}

// isWaitGroup reports whether t is (a pointer to) sync.WaitGroup.
func isWaitGroup(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "sync") && obj.Name() == "WaitGroup"
}
