package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// The CFG and solver are tested through a deliberately tiny must-analysis:
// the fact is "mark() has been called on every path reaching here". That
// one bit exercises the parts the real analyzers lean on — meet-is-AND at
// joins, back edges reconverging to a fixpoint, and returns and panics
// edging to Exit.

// markFlow is the test analysis. Facts are bool.
type markFlow struct{}

func (markFlow) EntryFact() any { return false }

func (markFlow) Transfer(f any, n ast.Node) any {
	es, ok := n.(*ast.ExprStmt)
	if !ok {
		return f
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return f
	}
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "mark" {
		return true
	}
	return f
}

func (markFlow) Meet(a, b any) any   { return a.(bool) && b.(bool) }
func (markFlow) Equal(a, b any) bool { return a == b }

// buildFromSrc parses a function body (statements only) and builds its CFG.
func buildFromSrc(t *testing.T, body string) *CFG {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "t.go", src, 0)
	if err != nil {
		t.Fatalf("parse %q: %v", body, err)
	}
	fd := file.Decls[len(file.Decls)-1].(*ast.FuncDecl)
	return buildCFG(fd.Body)
}

// exitFact solves the mark analysis and returns the fact at Exit plus
// whether Exit is reachable at all.
func exitFact(t *testing.T, body string) (marked, reached bool) {
	t.Helper()
	cfg := buildFromSrc(t, body)
	in := solve(cfg, markFlow{})
	f, ok := in[cfg.Exit]
	if !ok {
		return false, false
	}
	return f.(bool), true
}

func TestCFGMustAnalysis(t *testing.T) {
	cases := []struct {
		name    string
		body    string
		marked  bool
		reached bool
	}{
		{"straight line", "x := 1; mark(); _ = x", true, true},
		{"no call", "x := 1; _ = x", false, true},

		{"if one arm only", "if c { mark() }", false, true},
		{"if both arms", "if c { mark() } else { mark() }", true, true},
		{"if-else-if chain missing arm", "if c { mark() } else if d { } else { mark() }", false, true},
		{"return bypasses merge", "if c { mark(); return }\nmark()", true, true},
		{"return path misses call", "if c { return }\nmark()", false, true},
		{"both arms terminate", "if c { mark(); return } else { mark(); return }", true, true},

		{"loop may run zero times", "for i := 0; i < n; i++ { mark() }", false, true},
		{"call before loop survives back edge", "mark()\nfor i := 0; i < n; i++ { work() }", true, true},
		{"infinite loop never exits", "for { work() }", false, false},
		{"break leaves infinite loop", "for { mark(); break }", true, true},
		{"continue skips tail of body", "for i := 0; i < n; i++ { if c { continue }; mark() }", false, true},
		{"labeled break exits outer loop", "outer:\nfor {\n\tfor {\n\t\tmark()\n\t\tbreak outer\n\t}\n}", true, true},
		{"range may be empty", "for range xs { mark() }", false, true},

		{"switch all cases call", "switch x {\ncase 1:\n\tmark()\ndefault:\n\tmark()\n}", true, true},
		{"switch without default leaks past", "switch x {\ncase 1:\n\tmark()\n}", false, true},
		{"fallthrough reaches next body", "switch x {\ncase 1:\n\tfallthrough\ncase 2:\n\tmark()\ndefault:\n\tmark()\n}", true, true},
		{"type switch all cases call", "switch y.(type) {\ncase int:\n\tmark()\ndefault:\n\tmark()\n}", true, true},
		{"select all comms call", "select {\ncase <-a:\n\tmark()\ncase b <- 1:\n\tmark()\n}", true, true},
		{"select one comm misses", "select {\ncase <-a:\n\tmark()\ncase b <- 1:\n}", false, true},

		{"panic path joins exit unmarked", "if c { panic(\"boom\") }\nmark()", false, true},
		{"panic then call on main path", "mark()\nif c { panic(\"boom\") }", true, true},
		{"goto is a conservative exit", "if c { goto done }\nmark()\ndone:\n\treturn", false, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			marked, reached := exitFact(t, c.body)
			if reached != c.reached {
				t.Fatalf("exit reached = %v, want %v", reached, c.reached)
			}
			if marked != c.marked {
				t.Errorf("exit fact = %v, want %v", marked, c.marked)
			}
		})
	}
}

// TestCFGWellFormed pins structural invariants on a function using every
// construct the builder handles: all edges land inside Blocks, Exit has no
// successors, and only Exit may sit at the end of a terminated path.
func TestCFGWellFormed(t *testing.T) {
	cfg := buildFromSrc(t, `
	if c {
		return
	}
	for i := 0; i < n; i++ {
		switch x {
		case 1:
			continue
		case 2:
			fallthrough
		default:
			work()
		}
	}
	for range xs {
		select {
		case <-a:
			break
		case b <- 1:
			panic("no")
		}
	}
	done:
		for {
			if ok {
				break done
			}
		}`)

	known := map[*Block]bool{}
	for _, b := range cfg.Blocks {
		known[b] = true
	}
	if !known[cfg.Entry] || !known[cfg.Exit] {
		t.Fatal("Entry/Exit missing from Blocks")
	}
	for _, b := range cfg.Blocks {
		for _, to := range b.Succs {
			if !known[to] {
				t.Errorf("edge to a block not in Blocks")
			}
		}
	}
	if len(cfg.Exit.Succs) != 0 {
		t.Errorf("Exit has %d successors, want 0", len(cfg.Exit.Succs))
	}
}

// TestVisitFacts pins the reporting contract: fn sees the fact holding
// immediately BEFORE each node, so a check attached to a node is not
// satisfied by that same node's own effect.
func TestVisitFacts(t *testing.T) {
	cfg := buildFromSrc(t, "pre()\nmark()\npost()")
	fl := markFlow{}
	in := solve(cfg, fl)
	got := map[string]bool{}
	visitFacts(cfg, fl, in, func(f any, n ast.Node) {
		es, ok := n.(*ast.ExprStmt)
		if !ok {
			return
		}
		if id, ok := es.X.(*ast.CallExpr).Fun.(*ast.Ident); ok {
			got[id.Name] = f.(bool)
		}
	})
	want := map[string]bool{"pre": false, "mark": false, "post": true}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("fact before %s() = %v, want %v", name, got[name], w)
		}
	}
}

// TestShallowWalk pins the pruning rules: nested function-literal bodies
// are opaque, and a RangeStmt exposes only its per-iteration bindings.
func TestShallowWalk(t *testing.T) {
	src := "package p\nfunc f() {\n\tgo func() { inner() }()\n\tfor k, v := range m {\n\t\t_ = k\n\t\t_ = v\n\t}\n}"
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "t.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	fd := file.Decls[0].(*ast.FuncDecl)
	goStmt := fd.Body.List[0].(*ast.GoStmt)
	rng := fd.Body.List[1].(*ast.RangeStmt)

	seen := map[string]bool{}
	collect := func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			seen[id.Name] = true
		}
		return true
	}
	shallowWalk(goStmt, collect)
	if seen["inner"] {
		t.Error("shallowWalk descended into a FuncLit body")
	}

	seen = map[string]bool{}
	shallowWalk(rng, collect)
	if !seen["k"] || !seen["v"] {
		t.Errorf("shallowWalk on RangeStmt missed bindings: %v", seen)
	}
	if seen["m"] {
		t.Error("shallowWalk on RangeStmt visited the ranged expression (it belongs to the pre-loop block)")
	}
}
