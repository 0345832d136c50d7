package sem_test

import (
	"fmt"
	"strings"
	"testing"

	"staticest/internal/cast"
	"staticest/internal/cfg"
	"staticest/internal/cparse"
	"staticest/internal/ctypes"
	"staticest/internal/sem"
)

func analyze(t *testing.T, src string) *sem.Program {
	t.Helper()
	file, err := cparse.ParseFile("t.c", []byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sp, err := sem.Analyze(file)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	return sp
}

func analyzeErr(t *testing.T, src string) error {
	t.Helper()
	file, err := cparse.ParseFile("t.c", []byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, err = sem.Analyze(file)
	return err
}

func TestResolutionAndTypes(t *testing.T) {
	sp := analyze(t, `
int g;
double scale(double x) { return x * 2.0; }
int main(void) {
	int local = 3;
	g = local + 1;
	return (int)scale(g);
}`)
	if sp.Main == nil || sp.Main.Name() != "main" {
		t.Fatal("main not identified")
	}
	if len(sp.Funcs) != 2 {
		t.Fatalf("%d funcs", len(sp.Funcs))
	}
	if len(sp.Globals) != 1 || sp.Globals[0].Obj.GlobalIndex != 0 {
		t.Errorf("globals mis-assigned: %+v", sp.Globals)
	}
	// The call to scale is a numbered site.
	if len(sp.CallSites) != 1 || sp.CallSites[0].Callee.Name != "scale" {
		t.Errorf("call sites: %+v", sp.CallSites)
	}
}

func TestFrameLayout(t *testing.T) {
	sp := analyze(t, `
int f(int a, char b) {
	int x;
	double y;
	char buf[10];
	return a + x;
}`)
	fd := sp.Funcs[0]
	// a@0, b@4, x@8, y@16, buf@24, frame = 40 (aligned to 8).
	offs := map[string]int64{}
	for _, p := range fd.Params {
		offs[p.Name] = p.FrameOffset
	}
	for _, l := range fd.Locals {
		offs[l.Name] = l.FrameOffset
	}
	want := map[string]int64{"a": 0, "b": 4, "x": 8, "y": 16, "buf": 24}
	for name, off := range want {
		if offs[name] != off {
			t.Errorf("%s at offset %d, want %d", name, offs[name], off)
		}
	}
	if fd.FrameSize != 40 {
		t.Errorf("frame size %d, want 40", fd.FrameSize)
	}
}

func TestBranchAndSwitchNumbering(t *testing.T) {
	sp := analyze(t, `
int f(int a) {
	if (a) a--;
	while (a) a--;
	do a++; while (a < 3);
	for (; a < 10; a++) { }
	switch (a) { case 1: return 1; default: return 0; }
}`)
	if len(sp.BranchSites) != 4 {
		t.Errorf("%d branch sites, want 4", len(sp.BranchSites))
	}
	for i, bs := range sp.BranchSites {
		if bs.ID != i {
			t.Errorf("branch site %d has ID %d", i, bs.ID)
		}
	}
	if len(sp.SwitchSites) != 1 {
		t.Errorf("%d switch sites, want 1", len(sp.SwitchSites))
	}
}

func TestAddressTakenCensus(t *testing.T) {
	sp := analyze(t, `
int a(void) { return 1; }
int b(void) { return 2; }
int c(void) { return 3; }
int (*table[2])(void) = {a, b};
int main(void) {
	int (*f)(void) = &a;
	f = b;
	return f() + table[0]() + c();
}`)
	counts := map[string]int{}
	for _, o := range sp.AddrTaken {
		counts[o.Name] = o.AddrTakenCount
	}
	// a: initializer + &a = 2; b: initializer + assignment = 2; c: only
	// called directly, never taken.
	if counts["a"] != 2 {
		t.Errorf("a address-taken %d, want 2", counts["a"])
	}
	if counts["b"] != 2 {
		t.Errorf("b address-taken %d, want 2", counts["b"])
	}
	if _, ok := counts["c"]; ok {
		t.Error("c should not be address-taken")
	}
	// The two pointer calls are indirect sites; the c() call is direct.
	indirect := 0
	for _, s := range sp.CallSites {
		if s.Indirect() {
			indirect++
		}
	}
	if indirect != 2 {
		t.Errorf("%d indirect sites, want 2", indirect)
	}
}

func TestBuiltinResolution(t *testing.T) {
	sp := analyze(t, `
int main(void) {
	printf("%d\n", abs(-4));
	return (int)strlen("xy");
}`)
	if !sp.BuiltinsUsed["printf"] || !sp.BuiltinsUsed["strlen"] || !sp.BuiltinsUsed["abs"] {
		t.Errorf("builtins not recorded: %v", sp.BuiltinsUsed)
	}
	// Builtin calls are not numbered call sites.
	if len(sp.CallSites) != 0 {
		t.Errorf("builtin calls numbered as sites: %+v", sp.CallSites)
	}
}

func TestSemanticErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"undeclared", `int main(void) { return zzz; }`, "undeclared"},
		{"redefined", `int x; double x; int main(void) { return 0; }`, "redefinition"},
		{"bad call arity", `int f(int a) { return a; } int main(void) { return f(1, 2); }`, "arguments"},
		{"bad member", `struct s { int a; }; int main(void) { struct s v; return v.b; }`, "no field"},
		{"arrow on value", `struct s { int a; }; int main(void) { struct s v; return v->a; }`, "non-struct-pointer"},
		{"deref int", `int main(void) { int x = 3; return *x; }`, "dereference"},
		{"call non-function", `int main(void) { int x = 1; return x(); }`, "non-function"},
		{"void return value", `void f(void) { return 3; } int main(void) { return 0; }`, "void function"},
		{"goto nowhere", `int main(void) { goto nowhere; }`, "label"},
		{"duplicate case", `int main(void) { switch (1) { case 1: case 1: return 0; } return 1; }`, "duplicate case"},
		{"struct by value", `struct s { int a; }; int f(struct s v) { return v.a; } int main(void){ return 0; }`, "struct"},
		{"assign to array", `int main(void) { int a[3]; int b[3]; a = b; return 0; }`, "array"},
		{"undefined function", `int g(int); int main(void) { return g(1); }`, "undefined function"},
		{"bad condition", `struct s { int a; }; struct s v; int main(void) { if (v) return 1; return 0; }`, "scalar"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := analyzeErr(t, tc.src)
			if err == nil {
				t.Fatal("expected error")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestStringInterning(t *testing.T) {
	sp := analyze(t, `
char *a = "dup";
char *b = "dup";
char *c = "other";
int main(void) { return 0; }`)
	if len(sp.Strings) != 2 {
		t.Errorf("%d interned strings, want 2 (dedup)", len(sp.Strings))
	}
}

func TestScopesAndShadowing(t *testing.T) {
	sp := analyze(t, `
int x = 1;
int main(void) {
	int x = 2;
	{
		int x = 3;
		x++;
	}
	return x;
}`)
	fd := sp.Main
	if len(fd.Locals) != 2 {
		t.Fatalf("%d locals, want 2", len(fd.Locals))
	}
	if fd.Locals[0].FrameOffset == fd.Locals[1].FrameOffset {
		t.Error("shadowed locals share storage")
	}
}

func TestExprTypesAnnotated(t *testing.T) {
	sp := analyze(t, `
int main(void) {
	double d = 1.5;
	int i = 2;
	long l;
	l = i + i;
	d = d + i;
	return (int)(d + l);
}`)
	// Every expression in main should carry a type after analysis.
	missing := 0
	cast.WalkFuncExprs(sp.Main, func(e cast.Expr) bool {
		if e.Type() == nil {
			missing++
		}
		return true
	})
	if missing > 0 {
		t.Errorf("%d expressions missing types", missing)
	}
}

func TestUsualArithInExpr(t *testing.T) {
	sp := analyze(t, `int main(void) { double d = 1.0; int i = 1; d = d * i; return 0; }`)
	var mulType *ctypes.Type
	cast.WalkFuncExprs(sp.Main, func(e cast.Expr) bool {
		if b, ok := e.(*cast.Binary); ok && b.Op == cast.Mul {
			mulType = b.Type()
		}
		return true
	})
	if mulType == nil || mulType.Kind != ctypes.Double {
		t.Errorf("double*int type = %v, want double", mulType)
	}
}

// TestObjectSizeLimit pins the frontend's size bounds. ctypes.MaxObjectSize
// bounds array declarators (before multiplying, so no size wraps),
// struct layout, each function's frame, and total global storage.
// Without it, the inner-dimension and field-offset cases compile but
// exceed the bytecode lowering's 32-bit operands. cfg.MaxNodes bounds
// the blocks of a function and the functions of a unit, the sizes of
// the estimators' dense Markov systems.
func TestObjectSizeLimit(t *testing.T) {
	compile := func(src string) error {
		file, err := cparse.ParseFile("t.c", []byte(src))
		if err != nil {
			return err
		}
		sp, err := sem.Analyze(file)
		if err != nil {
			return err
		}
		_, err = cfg.Build(sp)
		return err
	}
	ifs := func(n int) string {
		return "int a; int main(void) {" + strings.Repeat(" if(a)a=1;", n) + " return 0; }"
	}
	funcs := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "void f%d(void) {} ", i)
		}
		return b.String()
	}
	const main = " int main(void) { return 0; }"
	rejected := []struct{ name, src, want string }{
		{"1 TiB global", "char a[1099511627776];" + main, "object limit"},
		{"size wrapping to 0", "char a[4611686018427387904][4];" + main, "object limit"},
		{"inner dimension", "char a[2][3000000000];" + main, "object limit"},
		{"field offset", "struct s { char a[1000000000]; char b[1000000000]; char c[1000000000]; int x; };" + main, "object limit"},
		{"frame", "int main(void) { char a[629145600]; char b[629145600]; char c[629145600]; return 0; }", "stack frame"},
		{"global storage", "char a[629145600]; char b[629145600];" + main, "global storage"},
		{"array of incomplete struct", "struct s; struct s (*p)[1073741824][1073741824];" + main, "incomplete"},
		{"2049 blocks", ifs(1024), "2049 basic blocks exceed the 2048-block limit"},
		{"2049 functions", funcs(2048) + main, "2049 functions exceed the 2048-function limit"},
	}
	for _, tc := range rejected {
		t.Run(tc.name, func(t *testing.T) {
			err := compile(tc.src)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %v, want one mentioning %q", err, tc.want)
			}
		})
	}
	if err := compile("char a[1073741824];" + main); err != nil {
		t.Errorf("an object of exactly MaxObjectSize bytes: %v", err)
	}
	if err := compile(ifs(1023)); err != nil {
		t.Errorf("a function of 2047 blocks: %v", err)
	}
}
