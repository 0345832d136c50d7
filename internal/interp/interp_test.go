package interp_test

import (
	"strings"
	"testing"

	"staticest/internal/cfg"
	"staticest/internal/cparse"
	"staticest/internal/interp"
	"staticest/internal/sem"
)

func compile(t *testing.T, src string) *cfg.Program {
	t.Helper()
	file, err := cparse.ParseFile("test.c", []byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sp, err := sem.Analyze(file)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	cp, err := cfg.Build(sp)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	return cp
}

func run(t *testing.T, src string, opts interp.Options) *interp.Result {
	t.Helper()
	res, err := interp.Run(compile(t, src), opts)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func runOutput(t *testing.T, src string) string {
	t.Helper()
	res := run(t, src, interp.Options{})
	return string(res.Output)
}

func TestArithmetic(t *testing.T) {
	out := runOutput(t, `
int main(void) {
	int a = 7, b = 3;
	printf("%d %d %d %d %d\n", a + b, a - b, a * b, a / b, a % b);
	printf("%d %d %d\n", a << 2, a >> 1, a & b);
	printf("%d %d %d\n", a | b, a ^ b, ~a);
	unsigned int u = 0xffffffff;
	printf("%u %u\n", u, u + 1);
	long big = 1234567890123;
	printf("%ld\n", big * 2);
	return 0;
}`)
	want := "10 4 21 2 1\n28 3 3\n7 4 -8\n4294967295 0\n2469135780246\n"
	if out != want {
		t.Errorf("output:\n%q\nwant:\n%q", out, want)
	}
}

func TestSignedUnsignedConversions(t *testing.T) {
	out := runOutput(t, `
int main(void) {
	char c = 200;             /* wraps to -56 */
	unsigned char uc = 200;
	short s = 70000;          /* wraps */
	printf("%d %d %d\n", c, uc, s);
	int neg = -1;
	unsigned int u = neg;     /* 4294967295 */
	printf("%u\n", u);
	printf("%d\n", neg < u ? 1 : 0) /* usual conversions: -1 becomes huge */;
	return 0;
}`)
	want := "-56 200 4464\n4294967295\n0\n"
	if out != want {
		t.Errorf("output %q, want %q", out, want)
	}
}

func TestFloats(t *testing.T) {
	out := runOutput(t, `
int main(void) {
	double d = 3.5;
	float f = 1.25;
	printf("%.2f %.2f %.2f\n", d + f, d * 2.0, d / 2.0);
	printf("%d\n", (int)(d * 2.0));
	printf("%.4f\n", sqrt(2.0));
	printf("%.1f\n", pow(2.0, 10.0));
	int i = 7;
	printf("%.1f\n", i / 2.0);
	return 0;
}`)
	want := "4.75 7.00 1.75\n7\n1.4142\n1024.0\n3.5\n"
	if out != want {
		t.Errorf("output %q, want %q", out, want)
	}
}

func TestPointersAndArrays(t *testing.T) {
	out := runOutput(t, `
int sum(int *a, int n) {
	int s = 0, i;
	for (i = 0; i < n; i++) s += a[i];
	return s;
}
int main(void) {
	int arr[5] = {1, 2, 3, 4, 5};
	int *p = arr;
	printf("%d\n", sum(arr, 5));
	printf("%d %d %d\n", *p, *(p + 2), p[4]);
	p++;
	printf("%d\n", *p);
	printf("%d\n", (int)(&arr[4] - &arr[1]));
	int m[2][3] = {{1, 2, 3}, {4, 5, 6}};
	printf("%d %d\n", m[1][2], m[0][1]);
	return 0;
}`)
	want := "15\n1 3 5\n2\n3\n6 2\n"
	if out != want {
		t.Errorf("output %q, want %q", out, want)
	}
}

func TestStructs(t *testing.T) {
	out := runOutput(t, `
struct point { int x, y; };
struct rect { struct point lo, hi; char tag; };
int area(struct rect *r) {
	return (r->hi.x - r->lo.x) * (r->hi.y - r->lo.y);
}
int main(void) {
	struct rect r;
	struct point p = {1, 2};
	r.lo = p;
	r.hi.x = 5;
	r.hi.y = 7;
	r.tag = 'A';
	printf("%d %c\n", area(&r), r.tag);
	struct rect r2 = r;   /* struct assignment via initializer */
	r2.lo.x = 0;
	printf("%d %d\n", r.lo.x, r2.lo.x);
	return 0;
}`)
	want := "20 A\n1 0\n"
	if out != want {
		t.Errorf("output %q, want %q", out, want)
	}
}

func TestStringsAndHeap(t *testing.T) {
	out := runOutput(t, `
int main(void) {
	char buf[32];
	strcpy(buf, "hello");
	strcat(buf, ", world");
	printf("%s %d\n", buf, (int)strlen(buf));
	printf("%d\n", strcmp("abc", "abd"));
	char *p = (char *)malloc(16);
	memset(p, 'x', 3);
	p[3] = 0;
	printf("%s\n", p);
	free(p);
	int *nums = (int *)calloc(4, sizeof(int));
	nums[2] = 42;
	printf("%d %d\n", nums[0], nums[2]);
	free(nums);
	return 0;
}`)
	want := "hello, world 12\n-1\nxxx\n42 0\n"
	// note: calloc printed nums[0]=0 then nums[2]=42 -> "0 42"
	want = "hello, world 12\n-1\nxxx\n0 42\n"
	if out != want {
		t.Errorf("output %q, want %q", out, want)
	}
}

func TestRecursionAndGlobals(t *testing.T) {
	out := runOutput(t, `
int calls = 0;
int fib(int n) {
	calls++;
	if (n < 2) return n;
	return fib(n - 1) + fib(n - 2);
}
int main(void) {
	printf("%d %d\n", fib(10), calls);
	return 0;
}`)
	if out != "55 177\n" {
		t.Errorf("output %q, want %q", out, "55 177\n")
	}
}

func TestFunctionPointers(t *testing.T) {
	out := runOutput(t, `
int add(int a, int b) { return a + b; }
int mul(int a, int b) { return a * b; }
int (*ops[2])(int, int) = {add, mul};
int apply(int (*f)(int, int), int a, int b) { return f(a, b); }
int main(void) {
	int (*f)(int, int) = &add;
	printf("%d %d\n", f(2, 3), apply(mul, 4, 5));
	printf("%d %d\n", ops[0](10, 1), ops[1](10, 2));
	return 0;
}`)
	if out != "5 20\n11 20\n" {
		t.Errorf("output %q", out)
	}
}

func TestSwitchAndGoto(t *testing.T) {
	out := runOutput(t, `
int classify(int c) {
	switch (c) {
	case 0: return 100;
	case 1:
	case 2: return 200;
	case 3: {
		int x = 5;
		return 300 + x;
	}
	default: return -1;
	}
}
int main(void) {
	int i;
	for (i = 0; i < 5; i++) printf("%d ", classify(i));
	printf("\n");
	i = 0;
again:
	i++;
	if (i < 3) goto again;
	printf("%d\n", i);
	return 0;
}`)
	if out != "100 200 200 305 -1 \n3\n" {
		t.Errorf("output %q", out)
	}
}

func TestSwitchFallthrough(t *testing.T) {
	out := runOutput(t, `
int main(void) {
	int total = 0, i;
	for (i = 0; i < 4; i++) {
		switch (i) {
		case 0: total += 1;  /* falls through */
		case 1: total += 10; break;
		case 2: total += 100; break;
		}
	}
	printf("%d\n", total);
	return 0;
}`)
	// i=0: 1+10; i=1: 10; i=2: 100; i=3: nothing => 121
	if out != "121\n" {
		t.Errorf("output %q", out)
	}
}

func TestStdinAndArgs(t *testing.T) {
	res := run(t, `
int main(int argc, char **argv) {
	int c, n = 0;
	while ((c = getchar()) != -1) {
		if (c == 'a') n++;
	}
	printf("%d %d %s\n", n, argc, argv[1]);
	return n;
}`, interp.Options{Stdin: []byte("banana"), Args: []string{"hello", "x"}})
	if string(res.Output) != "3 3 hello\n" {
		t.Errorf("output %q", res.Output)
	}
	if res.ExitCode != 3 {
		t.Errorf("exit code %d, want 3", res.ExitCode)
	}
}

func TestTernaryCommaLogical(t *testing.T) {
	out := runOutput(t, `
int side = 0;
int bump(void) { side++; return side; }
int main(void) {
	int x = 5;
	printf("%d\n", x > 3 ? 10 : 20);
	printf("%d\n", (bump(), bump(), side));
	/* short circuit: bump must not run */
	if (0 && bump()) printf("no\n");
	if (1 || bump()) printf("yes\n");
	printf("%d\n", side);
	return 0;
}`)
	if out != "10\n2\nyes\n2\n" {
		t.Errorf("output %q", out)
	}
}

func TestDoWhileBreakContinue(t *testing.T) {
	out := runOutput(t, `
int main(void) {
	int i = 0, sum = 0;
	do {
		i++;
		if (i == 3) continue;
		if (i > 6) break;
		sum += i;
	} while (i < 100);
	printf("%d %d\n", i, sum);
	return 0;
}`)
	// adds 1,2,4,5,6 = 18; breaks at i=7
	if out != "7 18\n" {
		t.Errorf("output %q", out)
	}
}

func TestExitAndExitCode(t *testing.T) {
	res := run(t, `
void die(int code) { exit(code); }
int main(void) {
	printf("before\n");
	die(42);
	printf("after\n");
	return 0;
}`, interp.Options{})
	if res.ExitCode != 42 {
		t.Errorf("exit code %d, want 42", res.ExitCode)
	}
	if string(res.Output) != "before\n" {
		t.Errorf("output %q", res.Output)
	}
}

func TestRuntimeErrors(t *testing.T) {
	runEngineCases(t, []engineCase{
		{name: "null deref", src: `int main(void){ int *p = 0; return *p; }`,
			err: "runtime error at test.c:1:36: null pointer dereference"},
		{name: "div zero", src: `int main(void){ int z = 0; return 5 / z; }`,
			err: "runtime error at test.c:1:37: integer division by zero"},
		// The global lives in its own segment, so the overrun faults
		// (stack locals share one segment, as on real hardware).
		{name: "oob", src: `int a[3]; int main(void){ return a[10]; }`,
			err: `runtime error at test.c:1:35: out-of-bounds access: offset 40 size 4 in "a" (12 bytes)`},
		{name: "abort", src: `int main(void){ abort(); return 0; }`,
			err: "runtime error at test.c:1:22: abort() called"},
		{name: "use after free", src: `int main(void){ int *p = (int*)malloc(8); free(p); return *p; }`,
			err: "runtime error at test.c:1:59: use of freed memory (malloc)"},
		// The factors multiply to 2^64, which wraps to 0: each one is
		// bounded before the product is taken.
		{name: "calloc overflow", src: `int main(void){ char *p = (char*)calloc(4611686018427387904L, 4); p[0] = 1; return 0; }`,
			err: "runtime error at test.c:1:40: calloc of 4611686018427387904 elements of 4 bytes"},
		// off+size would wrap past 2^63.
		{name: "huge length", src: `int main(void){ char c; char *p = &c; memset(p + 16, 0, 9223372036854775807L); return 0; }`,
			err: `runtime error at test.c:1:45: out-of-bounds access: offset 16 size 9223372036854775807 in "stack" (8388608 bytes)`},
		{name: "step budget", src: `int main(void){ for(;;); return 0; }`,
			err: "runtime error: step budget exceeded (1000000 block executions)"},
		{name: "deep recursion", src: `int f(int n){ return f(n+1); } int main(void){ return f(0); }`,
			err: "runtime error at test.c:1:23: call depth exceeded (runaway recursion in f)"},
		// Only the start of a live block can be reallocated; copying
		// from past the block's end was a Go panic.
		{name: "realloc past the block", src: `int main(void){ char *p = (char*)malloc(10); p = (char*)realloc(p + 100, 20); return 0; }`,
			err: "runtime error at test.c:1:64: realloc of a pointer 100 bytes into a heap block"},
		{name: "realloc inside the block", src: `int main(void){ char *p = (char*)malloc(10); p = (char*)realloc(p + 3, 20); return 0; }`,
			err: "runtime error at test.c:1:64: realloc of a pointer 3 bytes into a heap block"},
		{name: "realloc after free", src: `int main(void){ char *p = (char*)malloc(10); free(p); p = (char*)realloc(p, 20); return 0; }`,
			err: "runtime error at test.c:1:73: use of freed memory (malloc)"},
		// A fault after a call returns reports the call in the caller,
		// not the callee's last statement (line 2).
		{name: "fault after a call", src: `int g(void) {
  return 5;
}
int a[3];
int main(void) {
  return g() + a[100000000];
}`,
			err: `runtime error at test.c:6:11: out-of-bounds access: offset 400000000 size 4 in "a" (12 bytes)`},
		{name: "divide by a call", src: `int z(void) {
  return 0;
}
int main(void) {
  int x;
  x = 1;
  x /= z();
  return x;
}`,
			err: "runtime error at test.c:7:5: integer division by zero"},
		// A compound assignment faults at its operator, as the binary
		// operator it stands for does.
		{name: "compound divide", src: `int main(void) {
  int x = 1, y = 0;
  x /= y;
  return x;
}`,
			err: "runtime error at test.c:3:5: integer division by zero"},
		{name: "plain divide", src: `int main(void) {
  int x = 1, y = 0;
  x = x / y;
  return x;
}`,
			err: "runtime error at test.c:3:9: integer division by zero"},
	})
}

func TestBranchProfileCounts(t *testing.T) {
	res := run(t, `
int main(void) {
	int i, odd = 0;
	for (i = 0; i < 10; i++) {
		if (i % 2) odd++;
	}
	return odd;
}`, interp.Options{})
	if res.ExitCode != 5 {
		t.Fatalf("exit %d, want 5", res.ExitCode)
	}
	p := res.Profile
	// Two branch sites: the for condition (10 true, 1 false) and the if
	// (5 true, 5 false) — order of IDs follows source order.
	if len(p.BranchTaken) != 2 {
		t.Fatalf("%d branch sites, want 2", len(p.BranchTaken))
	}
	if p.BranchTaken[0] != 10 || p.BranchNot[0] != 1 {
		t.Errorf("for branch = %g/%g, want 10/1", p.BranchTaken[0], p.BranchNot[0])
	}
	if p.BranchTaken[1] != 5 || p.BranchNot[1] != 5 {
		t.Errorf("if branch = %g/%g, want 5/5", p.BranchTaken[1], p.BranchNot[1])
	}
}

func TestSwitchProfileCounts(t *testing.T) {
	res := run(t, `
int main(void) {
	int i, x = 0;
	for (i = 0; i < 6; i++) {
		switch (i % 3) {
		case 0: x += 1; break;
		case 1: x += 2; break;
		default: x += 3; break;
		}
	}
	return x;
}`, interp.Options{})
	if res.ExitCode != 12 {
		t.Fatalf("exit %d, want 12", res.ExitCode)
	}
	arms := res.Profile.SwitchArm[0]
	if len(arms) != 3 || arms[0] != 2 || arms[1] != 2 || arms[2] != 2 {
		t.Errorf("switch arms = %v, want [2 2 2]", arms)
	}
}

func TestSprintfAndFormats(t *testing.T) {
	out := runOutput(t, `
int main(void) {
	char buf[64];
	sprintf(buf, "[%5d|%-5d|%05d]", 42, 42, 42);
	puts(buf);
	printf("%x %X %o %c%c\n", 255, 255, 8, 'h', 'i');
	printf("%e\n", 12345.678);
	printf("%g\n", 0.0001);
	return 0;
}`)
	want := "[   42|42   |00042]\nff FF 10 hi\n1.234568e+04\n0.0001\n"
	if out != want {
		t.Errorf("output %q, want %q", out, want)
	}
}

func TestCostModelOptFactor(t *testing.T) {
	src := `
int work(int n) {
	int i, s = 0;
	for (i = 0; i < n; i++) s += i;
	return s;
}
int main(void) { return work(1000) & 0; }`
	cp := compile(t, src)
	res, err := interp.Run(cp, interp.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	base := res.Profile.Cycles
	if priced := cfg.Cycles(cp, res.Profile.BlockCounts, nil); priced != base {
		t.Errorf("run reports %g cycles, its block counts price at %g", base, priced)
	}
	opt := cfg.Cycles(cp, res.Profile.BlockCounts, map[int]float64{0: 0.5})
	if opt >= base {
		t.Errorf("optimized cycles %g not below baseline %g", opt, base)
	}
	// work dominates: halving it should cut total cycles by ~half.
	ratio := opt / base
	if ratio > 0.6 {
		t.Errorf("cycle ratio %g, want < 0.6", ratio)
	}
}

func TestCharIO(t *testing.T) {
	out := runOutput(t, `
int main(void) {
	char *s = "Hello";
	int i;
	for (i = 0; s[i]; i++) putchar(tolower(s[i]));
	putchar('\n');
	printf("%d %d %d\n", isdigit('5'), isalpha('x'), isspace('q'));
	return 0;
}`)
	if out != "hello\n1 1 0\n" {
		t.Errorf("output %q", out)
	}
}

func TestGlobalInitializers(t *testing.T) {
	out := runOutput(t, `
int table[5] = {10, 20, 30};
char msg[] = "hey";
struct cfg { int a; double b; char *name; };
struct cfg conf = {7, 2.5, "cfgname"};
int *ptr = table + 2;
int main(void) {
	printf("%d %d %d\n", table[0], table[2], table[4]);
	printf("%s %d\n", msg, (int)sizeof(msg));
	printf("%d %.1f %s\n", conf.a, conf.b, conf.name);
	printf("%d\n", *ptr);
	return 0;
}`)
	want := "10 30 0\nhey 4\n7 2.5 cfgname\n30\n"
	if out != want {
		t.Errorf("output %q, want %q", out, want)
	}
}

func TestAtoiRandDeterminism(t *testing.T) {
	src := `
int main(void) {
	printf("%d %d\n", atoi("  -123"), atoi("45x"));
	srand(7);
	int a = rand() % 100;
	srand(7);
	int b = rand() % 100;
	printf("%d\n", a == b);
	return 0;
}`
	out1 := runOutput(t, src)
	out2 := runOutput(t, src)
	if out1 != out2 {
		t.Errorf("non-deterministic output: %q vs %q", out1, out2)
	}
	if !strings.HasPrefix(out1, "-123 45\n1\n") {
		t.Errorf("output %q", out1)
	}
}
