package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Locks returns the lock-discipline analyzer (rule "locks"): a struct
// field annotated `// guarded by <mu>` may only be read or written while
// that sibling mutex is held on every control-flow path reaching the
// access. The analysis is a forward must-hold dataflow over the function
// CFG:
//
//   - mu.Lock() makes mu held exclusively, mu.RLock() held shared;
//     mu.Unlock()/mu.RUnlock() release it. `defer mu.Unlock()` keeps the
//     mutex held for the rest of every path (the deferred release runs at
//     function exit), which is what makes the lock-defer-early-return
//     idiom check out.
//   - At branch merges a mutex counts as held only if it is held on every
//     incoming path, and as read-held if any path holds it only shared —
//     so a lock taken in one arm of an if does not guard the code after
//     the merge, and RLock never licenses a write.
//   - Writes (assignment, ++/--, taking the address) require the
//     exclusive lock; reads accept either mode.
//
// Two conventions keep the analysis intra-procedural: a method whose name
// ends in "Locked" is assumed to be entered with its receiver's mutexes
// held exclusively (the codebase-wide caller-holds convention), and
// accesses through a variable freshly constructed in the same function
// (&T{...}, T{}, new(T)) are exempt — an object no other goroutine can
// see yet needs no lock.
func Locks() *Analyzer {
	return &Analyzer{
		Name:  "locks",
		Doc:   "fields annotated `// guarded by <mu>` must only be touched with that mutex held on every path",
		Rules: []string{"locks"},
		Run:   runLocks,
	}
}

// guardedRe extracts the mutex name from a `// guarded by <mu>` field
// comment.
var guardedRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// lockState is the per-mutex lattice: absent from the fact map means not
// (necessarily) held.
type lockState uint8

const (
	lockRead lockState = iota + 1
	lockExcl
)

// lockFact maps canonical mutex paths to their must-held state. Facts are
// treated as immutable; transfers copy on write.
type lockFact map[string]lockState

// guardInfo is the package's annotation table.
type guardInfo struct {
	// field maps an annotated field object to its guarding mutex's field
	// name.
	field map[*types.Var]string
	// muxOf maps a struct's named type to its mutex-typed field names,
	// for the *Locked entry-fact convention.
	muxOf map[*types.Named][]string
}

func runLocks(p *Package) []Finding {
	info, bad := collectGuards(p)
	out := bad
	if len(info.field) == 0 {
		return out
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			lc := &lockChecker{p: p, info: info, fresh: freshLocals(p, fd.Body)}
			out = append(out, lc.checkBody(fd.Body, lockEntryFact(p, info, fd))...)
		}
	}
	return out
}

// collectGuards parses the `// guarded by <mu>` field annotations of the
// package, reporting annotations that name a missing or non-mutex
// sibling.
func collectGuards(p *Package) (guardInfo, []Finding) {
	info := guardInfo{field: map[*types.Var]string{}, muxOf: map[*types.Named][]string{}}
	var bad []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			named, _ := p.Info.Defs[ts.Name].Type().(*types.Named)

			muxNames := map[string]bool{}
			for _, field := range st.Fields.List {
				for _, name := range field.Names {
					if obj, ok := p.Info.Defs[name].(*types.Var); ok && isMutexType(obj.Type()) {
						muxNames[name.Name] = true
						if named != nil {
							info.muxOf[named] = append(info.muxOf[named], name.Name)
						}
					}
				}
			}
			for _, field := range st.Fields.List {
				mu := guardAnnotation(field)
				if mu == "" {
					continue
				}
				if !muxNames[mu] {
					bad = append(bad, p.finding("locks", field,
						"field annotated `guarded by %s` but %s.%s is not a sync.Mutex/RWMutex sibling", mu, ts.Name.Name, mu))
					continue
				}
				for _, name := range field.Names {
					if obj, ok := p.Info.Defs[name].(*types.Var); ok {
						info.field[obj] = mu
					}
				}
			}
			return true
		})
	}
	return info, bad
}

// guardAnnotation returns the mutex named by a field's `guarded by`
// comment (doc block or trailing line comment), or "".
func guardAnnotation(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if m := guardedRe.FindStringSubmatch(c.Text); m != nil {
				return m[1]
			}
		}
	}
	return ""
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// isRWMutexType reports whether t is sync.RWMutex specifically.
func isRWMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "RWMutex"
}

// lockEntryFact is the fact at function entry: empty, except for the
// *Locked caller-holds convention, which enters with every mutex field of
// the receiver held exclusively.
func lockEntryFact(p *Package, info guardInfo, fd *ast.FuncDecl) lockFact {
	f := lockFact{}
	if !strings.HasSuffix(fd.Name.Name, "Locked") || fd.Recv == nil || len(fd.Recv.List) == 0 {
		return f
	}
	names := fd.Recv.List[0].Names
	if len(names) == 0 {
		return f
	}
	obj := p.Info.Defs[names[0]]
	if obj == nil {
		return f
	}
	t := obj.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return f
	}
	for _, mu := range info.muxOf[named] {
		f[objKey(obj)+"."+mu] = lockExcl
	}
	return f
}

// objKey is the canonical root of a lock path: the defining object's
// identity.
func objKey(obj types.Object) string { return fmt.Sprintf("%p", obj) }

// lockPath renders an expression as a canonical access path rooted at a
// named object: "objptr.field.sub". Returns "" for expressions the
// analysis cannot key (method-call results, arbitrary indexes), which are
// simply not tracked.
func (p *Package) lockPath(e ast.Expr) string {
	switch v := stripParens(e).(type) {
	case *ast.Ident:
		obj := p.Info.Uses[v]
		if obj == nil {
			obj = p.Info.Defs[v]
		}
		if obj == nil {
			return ""
		}
		return objKey(obj)
	case *ast.SelectorExpr:
		base := p.lockPath(v.X)
		if base == "" {
			return ""
		}
		return base + "." + v.Sel.Name
	case *ast.StarExpr:
		return p.lockPath(v.X)
	case *ast.UnaryExpr:
		return p.lockPath(v.X)
	case *ast.IndexExpr:
		base := p.lockPath(v.X)
		if base == "" {
			return ""
		}
		switch idx := stripParens(v.Index).(type) {
		case *ast.Ident:
			return base + "[" + p.lockPath(idx) + "]"
		case *ast.BasicLit:
			return base + "[" + idx.Value + "]"
		}
		return ""
	}
	return ""
}

// freshLocals collects local variables initialized from a fresh composite
// literal or new() in this function: objects no other goroutine can reach
// yet, whose guarded fields may be initialized without the lock.
func freshLocals(p *Package, body *ast.BlockStmt) map[types.Object]bool {
	fresh := map[types.Object]bool{}
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := stripParens(lhs).(*ast.Ident)
		if !ok {
			return
		}
		obj := p.Info.Defs[id]
		if obj == nil {
			return
		}
		switch r := stripParens(rhs).(type) {
		case *ast.CompositeLit:
			fresh[obj] = true
		case *ast.UnaryExpr:
			if _, ok := stripParens(r.X).(*ast.CompositeLit); ok {
				fresh[obj] = true
			}
		case *ast.CallExpr:
			if id, ok := stripParens(r.Fun).(*ast.Ident); ok && id.Name == "new" {
				fresh[obj] = true
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i := range s.Lhs {
					record(s.Lhs[i], s.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(s.Names) == len(s.Values) {
				for i := range s.Names {
					record(s.Names[i], s.Values[i])
				}
			}
		}
		return true
	})
	return fresh
}

// lockChecker runs the locks dataflow over one function body (and,
// recursively, its synchronously-called function literals).
type lockChecker struct {
	p     *Package
	info  guardInfo
	fresh map[types.Object]bool
}

// EntryFact/Transfer/Meet/Equal implement flowAnalysis; the
// entry fact is threaded through checkBody instead (closures inherit the
// fact at their occurrence).
func (lc *lockChecker) checkBody(body *ast.BlockStmt, entry lockFact) []Finding {
	cfg := buildCFG(body)
	a := &lockFlow{lc: lc, entry: entry}
	in := solve(cfg, a)

	var out []Finding
	visitFacts(cfg, a, in, func(f any, n ast.Node) {
		out = append(out, lc.checkNode(n, f.(lockFact))...)
	})
	return out
}

// checkNode reports unguarded accesses within one simple node, recursing
// into function literals: a literal spawned by go/defer starts with no
// locks held (it runs later), any other literal inherits the fact at its
// occurrence (the sort.Slice-under-lock idiom).
func (lc *lockChecker) checkNode(n ast.Node, f lockFact) []Finding {
	var out []Finding
	_, async := n.(*ast.GoStmt)
	if _, isDefer := n.(*ast.DeferStmt); isDefer {
		async = true
	}
	writes := writeTargets(n)
	shallowWalk(n, func(x ast.Node) bool {
		if fl, ok := x.(*ast.FuncLit); ok {
			entry := f
			if async {
				entry = lockFact{}
			}
			out = append(out, lc.checkBody(fl.Body, entry)...)
			return false
		}
		sel, ok := x.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fieldObj, ok := lc.p.Info.Uses[sel.Sel].(*types.Var)
		if !ok {
			return true
		}
		mu, guarded := lc.info.field[fieldObj]
		if !guarded {
			return true
		}
		if root := rootIdentObj(lc.p, sel.X); root != nil && lc.fresh[root] {
			return true
		}
		base := lc.p.lockPath(sel.X)
		if base == "" {
			return true
		}
		state := f[base+"."+mu]
		write := writes[sel]
		switch {
		case state == 0:
			out = append(out, lc.p.finding("locks", sel,
				"%s is guarded by %s but accessed without holding it on every path", fieldObj.Name(), mu))
		case write && state == lockRead:
			out = append(out, lc.p.finding("locks", sel,
				"%s is guarded by %s but written while only the read lock is held", fieldObj.Name(), mu))
		}
		return true
	})
	return out
}

// writeTargets collects the selector expressions a node writes through:
// assignment targets (including element and field writes through the
// selector), ++/--, and taking the address.
func writeTargets(n ast.Node) map[*ast.SelectorExpr]bool {
	w := map[*ast.SelectorExpr]bool{}
	mark := func(e ast.Expr) {
		// Writing s.f, s.f[i], or *s.f all mutate data guarded for s.f.
		for {
			switch v := stripParens(e).(type) {
			case *ast.SelectorExpr:
				w[v] = true
				return
			case *ast.IndexExpr:
				e = v.X
			case *ast.StarExpr:
				e = v.X
			default:
				return
			}
		}
	}
	shallowWalk(n, func(x ast.Node) bool {
		switch s := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				mark(lhs)
			}
		case *ast.IncDecStmt:
			mark(s.X)
		case *ast.UnaryExpr:
			if s.Op == token.AND {
				mark(s.X)
			}
		}
		return true
	})
	return w
}

// rootIdentObj returns the object of the identifier at the base of a
// selector chain, or nil.
func rootIdentObj(p *Package, e ast.Expr) types.Object {
	for {
		switch v := stripParens(e).(type) {
		case *ast.Ident:
			if obj := p.Info.Uses[v]; obj != nil {
				return obj
			}
			return p.Info.Defs[v]
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.UnaryExpr:
			e = v.X
		default:
			return nil
		}
	}
}

// lockFlow is the flowAnalysis for the locks lattice.
type lockFlow struct {
	lc    *lockChecker
	entry lockFact
}

func (a *lockFlow) EntryFact() any { return a.entry }

func (a *lockFlow) Transfer(f any, n ast.Node) any {
	fact := f.(lockFact)
	// Deferred and go'd calls do not change the held set here: a deferred
	// unlock runs at exit (the lock stays held on every in-function path),
	// and a spawned goroutine's locking is its own story.
	switch n.(type) {
	case *ast.DeferStmt, *ast.GoStmt:
		return fact
	}
	out := fact
	copied := false
	shallowWalk(n, func(x ast.Node) bool {
		if _, ok := x.(*ast.FuncLit); ok {
			return false
		}
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		key, op := a.lc.p.mutexOp(call)
		if key == "" {
			return true
		}
		if !copied {
			cp := make(lockFact, len(out)+1)
			//raqolint:ignore maprange loop copies the map verbatim, which is order-free
			for k, v := range out {
				cp[k] = v
			}
			out, copied = cp, true
		}
		switch op {
		case "Lock":
			out[key] = lockExcl
		case "RLock":
			out[key] = lockRead
		case "Unlock", "RUnlock":
			delete(out, key)
		}
		return true
	})
	return out
}

func (a *lockFlow) Meet(x, y any) any {
	fx, fy := x.(lockFact), y.(lockFact)
	out := make(lockFact)
	//raqolint:ignore maprange key intersection meet is exactly commutative
	for k, vx := range fx {
		vy, ok := fy[k]
		if !ok {
			continue
		}
		if vx == lockExcl && vy == lockExcl {
			out[k] = lockExcl
		} else {
			out[k] = lockRead
		}
	}
	return out
}

func (a *lockFlow) Equal(x, y any) bool {
	fx, fy := x.(lockFact), y.(lockFact)
	if len(fx) != len(fy) {
		return false
	}
	//raqolint:ignore maprange map equality does not depend on visit order
	for k, v := range fx {
		if fy[k] != v {
			return false
		}
	}
	return true
}

// mutexOp recognizes a Lock/Unlock/RLock/RUnlock call on a sync mutex and
// returns the canonical path of the mutex plus the operation name.
func (p *Package) mutexOp(call *ast.CallExpr) (key, op string) {
	sel, ok := stripParens(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", ""
	}
	tv, ok := p.Info.Types[sel.X]
	if !ok {
		return "", ""
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if !isMutexType(t) {
		return "", ""
	}
	if (sel.Sel.Name == "RLock" || sel.Sel.Name == "RUnlock") && !isRWMutexType(t) {
		return "", ""
	}
	key = p.lockPath(sel.X)
	if key == "" {
		return "", ""
	}
	return key, sel.Sel.Name
}
