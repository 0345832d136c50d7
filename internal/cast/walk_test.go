package cast_test

import (
	"strings"
	"testing"

	"staticest/internal/cast"
	"staticest/internal/cparse"
	"staticest/internal/sem"
)

func parse(t *testing.T, src string) *cast.File {
	t.Helper()
	f, err := cparse.ParseFile("t.c", []byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

func TestWalkExprVisitsAll(t *testing.T) {
	f := parse(t, `int g(int x) { return (x + 1) * (x - 2) / (x ? 3 : 4); }`)
	ret := f.Funcs[0].Body.Stmts[0].(*cast.Return)
	count := 0
	cast.WalkExpr(ret.X, func(e cast.Expr) bool {
		count++
		return true
	})
	// div(mul(add(x,1), sub(x,2)), cond(x,3,4)) = 3 binary + 1 cond +
	// 4 idents + 4 literals = 12.
	if count != 12 {
		t.Errorf("visited %d nodes, want 12", count)
	}
	// Pruning: stop at the top node.
	count = 0
	cast.WalkExpr(ret.X, func(e cast.Expr) bool {
		count++
		return false
	})
	if count != 1 {
		t.Errorf("pruned walk visited %d, want 1", count)
	}
}

func TestWalkStmtVisitsNested(t *testing.T) {
	f := parse(t, `
int g(int x) {
	while (x) {
		if (x > 2) { x--; } else x -= 2;
		switch (x) { case 1: x = 0; break; default: ; }
	}
	return x;
}`)
	var kinds []string
	cast.WalkStmt(f.Funcs[0].Body, func(s cast.Stmt) bool {
		kinds = append(kinds, typeOf(s))
		return true
	})
	joined := strings.Join(kinds, " ")
	for _, want := range []string{"Block", "While", "If", "Switch", "Return", "Break"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %s in walk: %s", want, joined)
		}
	}
}

func typeOf(v any) string {
	switch v.(type) {
	case *cast.Block:
		return "Block"
	case *cast.While:
		return "While"
	case *cast.If:
		return "If"
	case *cast.Switch:
		return "Switch"
	case *cast.Return:
		return "Return"
	case *cast.Break:
		return "Break"
	case *cast.ExprStmt:
		return "ExprStmt"
	case *cast.DeclStmt:
		return "DeclStmt"
	case *cast.Empty:
		return "Empty"
	default:
		return "Other"
	}
}

func TestCalls(t *testing.T) {
	f := parse(t, `
int h(int x) { return x; }
int g(int x) {
	if (h(x)) return h(x + h(1));
	return 0;
}`)
	calls := cast.Calls(f.Funcs[1])
	if len(calls) != 3 {
		t.Errorf("%d calls, want 3", len(calls))
	}
}

func TestContainsHelpers(t *testing.T) {
	f := parse(t, `
void fail(void) { }
int g(int x) {
	if (x) { fail(); }
	if (x > 1) { return 2; }
	return 0;
}`)
	// ContainsCallMatching resolves callees through bound objects.
	if _, err := sem.Analyze(f); err != nil {
		t.Fatal(err)
	}
	g := f.Funcs[1]
	if1 := g.Body.Stmts[0].(*cast.If)
	if2 := g.Body.Stmts[1].(*cast.If)
	isFail := func(o *cast.Object) bool { return o.Name == "fail" }
	if !cast.ContainsCallMatching(if1.Then, isFail) {
		t.Error("fail call not found")
	}
	if cast.ContainsCallMatching(if2.Then, isFail) {
		t.Error("phantom call found")
	}
	if cast.ContainsReturn(if1.Then) {
		t.Error("phantom return found")
	}
	if !cast.ContainsReturn(if2.Then) {
		t.Error("return not found")
	}
}

func TestExprString(t *testing.T) {
	f := parse(t, `
struct p { int x; };
int g(struct p *v, int a) {
	return v->x + a * 2 - -a + (a ? 1 : 0);
}`)
	ret := f.Funcs[0].Body.Stmts[0].(*cast.Return)
	s := cast.ExprString(ret.X)
	for _, want := range []string{"v->x", "a * 2", "-a", "a ? 1 : 0"} {
		if !strings.Contains(s, want) {
			t.Errorf("ExprString %q missing %q", s, want)
		}
	}
}

func TestStmtLabel(t *testing.T) {
	f := parse(t, `
int g(int x) {
	while (x > 0) x--;
	if (x) return 1;
	switch (x) { default: break; }
	goto end;
end:
	return 0;
}`)
	labels := map[string]bool{}
	cast.WalkStmt(f.Funcs[0].Body, func(s cast.Stmt) bool {
		labels[cast.StmtLabel(s)] = true
		return true
	})
	for _, want := range []string{"while (x > 0)", "if (x)", "switch (x)", "goto end;"} {
		if !labels[want] {
			t.Errorf("missing label %q in %v", want, labels)
		}
	}
}

func TestFprintTree(t *testing.T) {
	f := parse(t, `int g(int x) { if (x) x++; return x; }`)
	var sb strings.Builder
	cast.FprintTree(&sb, f.Funcs[0], func(s cast.Stmt) string { return "42" })
	out := sb.String()
	if !strings.Contains(out, "function g") || !strings.Contains(out, "42") {
		t.Errorf("tree:\n%s", out)
	}
}

// TestStoredAndReadObjects runs after sem binds identifiers, since the
// helpers key on resolved objects (they drive the store heuristic).
func TestStoredAndReadObjects(t *testing.T) {
	f := parse(t, `
int g(int a, int b) {
	int c = 0;
	int d = 0;
	if (a) { c = b + d; }
	b++;
	return c;
}`)
	if _, err := sem.Analyze(f); err != nil {
		t.Fatal(err)
	}
	fn := f.Funcs[0]
	ifStmt := fn.Body.Stmts[2].(*cast.If)
	stored := names(cast.StoredObjects(ifStmt.Then))
	if !stored["c"] || stored["b"] || stored["d"] {
		t.Errorf("stored in then-arm = %v, want {c}", stored)
	}
	read := names(cast.ReadObjects(fn.Body))
	for _, want := range []string{"a", "b", "c", "d"} {
		if !read[want] {
			t.Errorf("%s not in read set %v", want, read)
		}
	}
	// Whole-function stores: c (decl init is separate), b via ++.
	storedAll := names(cast.StoredObjects(fn.Body))
	if !storedAll["b"] || !storedAll["c"] {
		t.Errorf("stored in function = %v, want b and c", storedAll)
	}
}

func names(set map[*cast.Object]bool) map[string]bool {
	out := map[string]bool{}
	for o := range set {
		out[o.Name] = true
	}
	return out
}
