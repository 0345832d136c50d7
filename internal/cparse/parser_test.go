package cparse

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"staticest/internal/cast"
	"staticest/internal/clex"
	"staticest/internal/ctypes"
)

const strchrSrc = `
/* Find first occurrence of a character in a string. */
#define NULL 0
char *my_strchr(char *str, int c) {
	while (*str) {
		if (*str == c)
			return str;
		str++;
	}
	return NULL;
}
`

func mustParse(t *testing.T, src string) *cast.File {
	t.Helper()
	f, err := ParseFile("test.c", []byte(src))
	if err != nil {
		t.Fatalf("ParseFile: %v", err)
	}
	return f
}

func TestParseStrchr(t *testing.T) {
	f := mustParse(t, strchrSrc)
	if len(f.Funcs) != 1 {
		t.Fatalf("got %d functions, want 1", len(f.Funcs))
	}
	fd := f.Funcs[0]
	if fd.Name() != "my_strchr" {
		t.Errorf("name = %q, want my_strchr", fd.Name())
	}
	if got := fd.Obj.Type.String(); got != "char* my_strchr(char*, int)" &&
		got != "char* (char*, int)" {
		// The exact rendering is informative only; check structure.
		sig := fd.Obj.Type.Sig
		if sig.Ret.Kind != ctypes.Ptr || sig.Ret.Elem.Kind != ctypes.Char {
			t.Errorf("return type = %s, want char*", sig.Ret)
		}
		if len(sig.Params) != 2 {
			t.Fatalf("params = %d, want 2", len(sig.Params))
		}
	}
	if len(fd.Params) != 2 || fd.Params[0].Name != "str" || fd.Params[1].Name != "c" {
		t.Errorf("params mis-parsed: %+v", fd.Params)
	}
	body := fd.Body
	if len(body.Stmts) != 2 {
		t.Fatalf("body has %d statements, want 2", len(body.Stmts))
	}
	w, ok := body.Stmts[0].(*cast.While)
	if !ok {
		t.Fatalf("first statement is %T, want *cast.While", body.Stmts[0])
	}
	if _, ok := w.Cond.(*cast.Unary); !ok {
		t.Errorf("while condition is %T, want *cast.Unary (deref)", w.Cond)
	}
	ret, ok := body.Stmts[1].(*cast.Return)
	if !ok {
		t.Fatalf("second statement is %T, want *cast.Return", body.Stmts[1])
	}
	// #define NULL 0 should have expanded to the integer literal 0.
	if lit, ok := ret.X.(*cast.IntLit); !ok || lit.Val != 0 {
		t.Errorf("return value is %s, want literal 0", cast.ExprString(ret.X))
	}
}

func TestParseDeclarators(t *testing.T) {
	src := `
typedef struct node Node;
struct node { int val; struct node *next; Node *prev; };
int g_table[4][8];
double *g_ptrs[3];
int (*g_fp)(int, char *);
int (*g_fparr[5])(void);
unsigned long g_mask = 0xff00;
char g_msg[] = "hello";
`
	f := mustParse(t, src)
	byName := map[string]*cast.VarDecl{}
	for _, g := range f.Globals {
		byName[g.Obj.Name] = g
	}
	tests := []struct {
		name string
		want string
	}{
		{"g_table", "int[4][8]"},
		{"g_ptrs", "double*[3]"},
		{"g_fp", "int (*)(int, char*)"},
		{"g_mask", "unsigned long"},
	}
	for _, tt := range tests {
		g, ok := byName[tt.name]
		if !ok {
			t.Errorf("global %s not found", tt.name)
			continue
		}
		if got := g.Obj.Type.String(); got != tt.want {
			t.Errorf("%s: type = %q, want %q", tt.name, got, tt.want)
		}
	}
	// g_fparr: array of 5 pointers to function.
	g := byName["g_fparr"]
	if g == nil {
		t.Fatal("g_fparr not found")
	}
	typ := g.Obj.Type
	if typ.Kind != ctypes.Array || typ.Len != 5 || !typ.Elem.IsFuncPtr() {
		t.Errorf("g_fparr type = %s, want array of 5 function pointers", typ)
	}
	// Struct layout: val at 0, next at 8, prev at 16.
	var node *ctypes.StructInfo
	for _, s := range f.Structs {
		if s.Tag == "node" {
			node = s
		}
	}
	if node == nil || !node.Complete {
		t.Fatal("struct node not completed")
	}
	if node.Size != 24 {
		t.Errorf("struct node size = %d, want 24", node.Size)
	}
	if f := node.FieldByName("next"); f == nil || f.Offset != 8 {
		t.Errorf("field next offset wrong: %+v", f)
	}
}

func TestParseStatements(t *testing.T) {
	src := `
int collatz(int n) {
	int steps = 0;
	while (n != 1) {
		if (n % 2 == 0) n = n / 2;
		else n = 3 * n + 1;
		steps++;
	}
	return steps;
}
int classify(int c) {
	switch (c) {
	case 'a': case 'e': case 'i': case 'o': case 'u':
		return 1;
	case ' ':
	case '\t':
		return 2;
	default:
		return 0;
	}
}
int sum_to(int n) {
	int i, total;
	total = 0;
	for (i = 0; i < n; i++) total += i;
	do { total--; } while (total > 1000);
	goto out;
out:
	return total;
}
`
	f := mustParse(t, src)
	if len(f.Funcs) != 3 {
		t.Fatalf("got %d funcs, want 3", len(f.Funcs))
	}
	cl := f.Funcs[1]
	sw, ok := cl.Body.Stmts[0].(*cast.Switch)
	if !ok {
		t.Fatalf("classify body[0] is %T, want switch", cl.Body.Stmts[0])
	}
	if len(sw.Cases) != 3 {
		t.Fatalf("switch has %d cases, want 3", len(sw.Cases))
	}
	if len(sw.Cases[0].Vals) != 5 {
		t.Errorf("first case has %d labels, want 5", len(sw.Cases[0].Vals))
	}
	if sw.Cases[1].Vals[1] != '\t' {
		t.Errorf("tab label = %d, want %d", sw.Cases[1].Vals[1], '\t')
	}
	if !sw.Cases[2].IsDefault {
		t.Error("third case should be default")
	}
}

func TestParseEnumAndConst(t *testing.T) {
	src := `
enum color { RED, GREEN = 5, BLUE };
int arr[BLUE];           /* 6 */
int arr2[GREEN + BLUE];  /* 11 */
int pick(int c) {
	switch (c) {
	case RED: return 1;
	case GREEN: return 2;
	case BLUE: return 3;
	}
	return 0;
}
`
	f := mustParse(t, src)
	byName := map[string]*cast.VarDecl{}
	for _, g := range f.Globals {
		byName[g.Obj.Name] = g
	}
	if got := byName["arr"].Obj.Type.Len; got != 6 {
		t.Errorf("arr len = %d, want 6", got)
	}
	if got := byName["arr2"].Obj.Type.Len; got != 11 {
		t.Errorf("arr2 len = %d, want 11", got)
	}
	sw := f.Funcs[0].Body.Stmts[0].(*cast.Switch)
	if sw.Cases[2].Vals[0] != 6 {
		t.Errorf("case BLUE = %d, want 6", sw.Cases[2].Vals[0])
	}
}

// TestParseExpressionPrecedence pins the tree the parser builds for binary
// operators: every pair of adjacent precedence levels in both orders, left
// associativity within each of the ten levels, and their interplay with
// the unary, cast, conditional and assignment operators around them.
// ExprString parenthesizes every compound operand, so each rendering
// spells out the tree.
func TestParseExpressionPrecedence(t *testing.T) {
	cases := []struct{ src, want string }{
		// Adjacent levels, lower first and higher first.
		{"a || b && c", "a || (b && c)"},
		{"a && b || c", "(a && b) || c"},
		{"a && b | c", "a && (b | c)"},
		{"a | b && c", "(a | b) && c"},
		{"a | b ^ c", "a | (b ^ c)"},
		{"a ^ b | c", "(a ^ b) | c"},
		{"a ^ b & c", "a ^ (b & c)"},
		{"a & b ^ c", "(a & b) ^ c"},
		{"a & b == c", "a & (b == c)"},
		{"a != b & c", "(a != b) & c"},
		{"a == b < c", "a == (b < c)"},
		{"a > b != c", "(a > b) != c"},
		{"a <= b << c", "a <= (b << c)"},
		{"a >> b >= c", "(a >> b) >= c"},
		{"a << b + c", "a << (b + c)"},
		{"a - b >> c", "(a - b) >> c"},
		{"a + b * c", "a + (b * c)"},
		{"a % b - c", "(a % b) - c"},
		// Left associativity within each level.
		{"a || b || c", "(a || b) || c"},
		{"a && b && c", "(a && b) && c"},
		{"a | b | c", "(a | b) | c"},
		{"a ^ b ^ c", "(a ^ b) ^ c"},
		{"a & b & c", "(a & b) & c"},
		{"a == b != c", "(a == b) != c"},
		{"a < b >= c", "(a < b) >= c"},
		{"a > b <= c", "(a > b) <= c"},
		{"a << b >> c", "(a << b) >> c"},
		{"a - b - c", "(a - b) - c"},
		{"a - b + c", "(a - b) + c"},
		{"a / b % c", "(a / b) % c"},
		{"a * b / c", "(a * b) / c"},
		// Longer chains that climb and fall back.
		{"a && b || c && d", "(a && b) || (c && d)"},
		{"a || b && c || d", "(a || (b && c)) || d"},
		{"a + b * c - d", "(a + (b * c)) - d"},
		{"a * b + c * d", "(a * b) + (c * d)"},
		{"a | b & c == d + e * f", "a | (b & (c == (d + (e * f))))"},
		{"a * b + c == d & e | f", "((((a * b) + c) == d) & e) | f"},
		{"a + b * c - (a << 2) % b | c & a", "((a + (b * c)) - ((a << 2) % b)) | (c & a)"},
		// Operands are unary, cast and postfix expressions; ?: and =
		// bind looser than every binary operator.
		{"-a * b", "(-a) * b"},
		{"!a && b", "(!a) && b"},
		{"(long)a + b", "((long)a) + b"},
		{"*p + a[1] * c", "(*p) + (a[1] * c)"},
		{"a++ - --b", "a++ - (--b)"},
		{"sizeof a + b", "(sizeof a) + b"},
		{"a || b ? c + d : e - f", "(a || b) ? (c + d) : (e - f)"},
		{"e = a << b | c", "e = (a << b) | c"},
		{"e += a - b - c", "e += (a - b) - c"},
	}
	for _, tc := range cases {
		src := "void f(int a, int b, int c, int d, int e, int f, int *p) { " + tc.src + "; }"
		file, err := ParseFile("prec.c", []byte(src))
		if err != nil {
			t.Errorf("%s: %v", tc.src, err)
			continue
		}
		x := file.Funcs[0].Body.Stmts[0].(*cast.ExprStmt).X
		if got := cast.ExprString(x); got != tc.want {
			t.Errorf("%s parsed as %s, want %s", tc.src, got, tc.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`int f( { return 0; }`,
		`int f(void) { return 0 }`,
		`union u { int a; };`,
		`int f(void) { switch (1) { x = 2; } }`,
		`#define SELF SELF
		 int x = SELF;`,
		`#if 0
		 int x;
		 #endif`,
		`struct s { int x : 3; };`,
		`int a[-2];`,
	}
	for _, src := range bad {
		if _, err := ParseFile("bad.c", []byte(src)); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

// TestLexErrorPrecedence pins that a lexical error anywhere in the
// source is reported in place of any parse error, as when the whole
// source was lexed before parsing began, though the parser now pulls
// tokens as it goes. Each error lies more than a window past the
// point the parse has reached when the lexer finds it.
func TestLexErrorPrecedence(t *testing.T) {
	var decls, params strings.Builder // three tokens each
	for i := 0; i < window; i++ {
		fmt.Fprintf(&decls, "int g%d;\n", i)
		fmt.Fprintf(&params, "int a%d, ", i)
	}
	// Each use of B spends 30 copies of A's 1,999 tokens, as its
	// definition did; the second spend crosses the budget.
	budget := fmt.Sprintf("#define A 1%s\n#define B%s\n%sint main(void) { return B; }\n",
		strings.Repeat(" + 1", 999), strings.Repeat(" A", 30), decls.String())
	cases := []struct {
		name, src, want string
	}{
		{"a parse error on line 1, a lex error after it",
			"int x = ;\n" + decls.String() + "char c = 'ab';\n",
			fmt.Sprintf("t.c:%d:10: unterminated character literal", window+2)},
		{"a lex error inside an open declarator mark",
			"int (*f)(" + params.String() + "int @b);\n",
			fmt.Sprintf("t.c:1:%d: unexpected character '@'", len("int (*f)(")+params.Len()+5)},
		{"the expansion budget crossed mid-parse", budget,
			fmt.Sprintf("t.c:%d:25: macro expansion exceeds the %d-token limit", window+3, clex.MaxExpansion)},
	}
	for _, c := range cases {
		_, lexErr := clex.Tokenize("t.c", []byte(c.src))
		_, err := ParseFile("t.c", []byte(c.src))
		var le *clex.Error
		if err == nil || !errors.As(err, &le) || err.Error() != c.want {
			t.Errorf("%s: ParseFile err = %v, want lexical error %q", c.name, err, c.want)
		}
		if lexErr == nil || lexErr.Error() != c.want {
			t.Errorf("%s: Tokenize err = %v, want %q", c.name, lexErr, c.want)
		}
	}
}

func TestMacroExpansion(t *testing.T) {
	src := `
#define MAX 100
#define DOUBLE_MAX (MAX * 2)
int a[MAX];
int b[DOUBLE_MAX];
`
	f := mustParse(t, src)
	if got := f.Globals[0].Obj.Type.Len; got != 100 {
		t.Errorf("a len = %d, want 100", got)
	}
	if got := f.Globals[1].Obj.Type.Len; got != 200 {
		t.Errorf("b len = %d, want 200", got)
	}
}

func TestParseFunctionPointerParams(t *testing.T) {
	src := `
int apply(int (*f)(int, int), int a, int b) { return f(a, b); }
int each(void (*cb)(int), int n) {
	int i;
	for (i = 0; i < n; i++) cb(i);
	return n;
}
`
	f := mustParse(t, src)
	sig := f.Funcs[0].Obj.Type.Sig
	if len(sig.Params) != 3 || !sig.Params[0].IsFuncPtr() {
		t.Errorf("apply params: %v", sig.Params)
	}
	inner := sig.Params[0].Elem.Sig
	if len(inner.Params) != 2 || inner.Ret.Kind != ctypes.Int {
		t.Errorf("callback signature: %+v", inner)
	}
}

func TestParseTernaryNesting(t *testing.T) {
	f := mustParse(t, `int f(int a, int b) { return a ? b ? 1 : 2 : b ? 3 : 4; }`)
	ret := f.Funcs[0].Body.Stmts[0].(*cast.Return)
	top, ok := ret.X.(*cast.Cond)
	if !ok {
		t.Fatalf("top is %T", ret.X)
	}
	if _, ok := top.Then.(*cast.Cond); !ok {
		t.Error("then arm should nest a ternary")
	}
	if _, ok := top.Else.(*cast.Cond); !ok {
		t.Error("else arm should nest a ternary (right associativity)")
	}
}

func TestParseDanglingElse(t *testing.T) {
	f := mustParse(t, `int f(int a, int b) { if (a) if (b) return 1; else return 2; return 3; }`)
	outer := f.Funcs[0].Body.Stmts[0].(*cast.If)
	if outer.Else != nil {
		t.Fatal("else bound to the outer if")
	}
	inner := outer.Then.(*cast.If)
	if inner.Else == nil {
		t.Fatal("else not bound to the inner if")
	}
}

func TestParseSizeofForms(t *testing.T) {
	src := `
struct wide { double d[4]; };
long a = sizeof(struct wide);
long b = sizeof(int);
long c = sizeof 5;
long d = sizeof(char *);
`
	f := mustParse(t, src)
	wantLens := map[string]int64{"a": 32, "b": 4, "d": 8}
	for _, g := range f.Globals {
		want, ok := wantLens[g.Obj.Name]
		if !ok {
			continue
		}
		init := g.Init.(*cast.ExprInit)
		var got int64
		switch x := init.X.(type) {
		case *cast.SizeofType:
			got = x.Of.Size()
		default:
			t.Fatalf("%s: init is %T", g.Obj.Name, init.X)
		}
		if got != want {
			t.Errorf("%s = %d, want %d", g.Obj.Name, got, want)
		}
	}
}

func TestParseCastVsParens(t *testing.T) {
	src := `
typedef int myint;
int f(int x) {
	int a = (myint)x;     /* cast via typedef */
	int b = (x) + 1;      /* parenthesized expr */
	double d = (double)x / 2;
	return a + b + (int)d;
}
`
	f := mustParse(t, src)
	var casts int
	cast.WalkFuncExprs(f.Funcs[0], func(e cast.Expr) bool {
		if _, ok := e.(*cast.CastExpr); ok {
			casts++
		}
		return true
	})
	if casts != 3 {
		t.Errorf("%d casts, want 3", casts)
	}
}

func TestParsePointerChains(t *testing.T) {
	f := mustParse(t, `int f(int ***ppp) { return ***ppp; }`)
	p := f.Funcs[0].Params[0].Type
	depth := 0
	for p.Kind == ctypes.Ptr {
		depth++
		p = p.Elem
	}
	if depth != 3 || p.Kind != ctypes.Int {
		t.Errorf("param type depth %d base %v", depth, p.Kind)
	}
}
