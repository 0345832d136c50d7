package interp_test

import (
	"strings"
	"testing"

	"staticest/internal/interp"
	"staticest/internal/obs"
	"staticest/internal/probes"
)

func TestLinkedListManipulation(t *testing.T) {
	out := runOutput(t, `
struct node { int val; struct node *next; };
struct node *push(struct node *head, int v) {
	struct node *n = (struct node *)malloc(sizeof(struct node));
	n->val = v;
	n->next = head;
	return n;
}
int sum(struct node *head) {
	int s = 0;
	while (head) {
		s += head->val;
		head = head->next;
	}
	return s;
}
struct node *reverse(struct node *head) {
	struct node *prev = 0;
	while (head) {
		struct node *next = head->next;
		head->next = prev;
		prev = head;
		head = next;
	}
	return prev;
}
int main(void) {
	struct node *list = 0;
	int i;
	for (i = 1; i <= 5; i++) list = push(list, i * i);
	printf("%d %d\n", sum(list), list->val);
	list = reverse(list);
	printf("%d\n", list->val);
	return 0;
}`)
	if out != "55 25\n1\n" {
		t.Errorf("output %q", out)
	}
}

func TestFunctionPointerStructMembers(t *testing.T) {
	// The xlisp/gs dispatch pattern: a table of named operations.
	out := runOutput(t, `
struct op { char *name; int (*fn)(int, int); };
int add(int a, int b) { return a + b; }
int mul(int a, int b) { return a * b; }
struct op ops[] = {{"add", add}, {"mul", mul}};
int run_op(char *name, int a, int b) {
	int i;
	for (i = 0; i < 2; i++)
		if (strcmp(ops[i].name, name) == 0)
			return ops[i].fn(a, b);
	return -1;
}
int main(void) {
	printf("%d %d %d\n", run_op("add", 3, 4), run_op("mul", 3, 4), run_op("nope", 1, 1));
	return 0;
}`)
	if out != "7 12 -1\n" {
		t.Errorf("output %q", out)
	}
}

func TestNestedStructsAndArrays(t *testing.T) {
	out := runOutput(t, `
struct inner { int vals[3]; };
struct outer { struct inner rows[2]; int tag; };
struct outer g;
int main(void) {
	int i, j;
	for (i = 0; i < 2; i++)
		for (j = 0; j < 3; j++)
			g.rows[i].vals[j] = i * 10 + j;
	g.tag = 99;
	printf("%d %d %d\n", g.rows[0].vals[2], g.rows[1].vals[0], g.tag);
	struct inner *p = &g.rows[1];
	p->vals[1] = 777;
	printf("%d\n", g.rows[1].vals[1]);
	printf("%d\n", (int)sizeof(struct outer));
	return 0;
}`)
	if out != "2 10 99\n777\n28\n" {
		t.Errorf("output %q", out)
	}
}

func TestPointerToPointer(t *testing.T) {
	out := runOutput(t, `
void set(int **pp, int *target) { *pp = target; }
int main(void) {
	int a = 5, b = 9;
	int *p = &a;
	set(&p, &b);
	printf("%d\n", *p);
	*p = 11;
	printf("%d %d\n", a, b);
	return 0;
}`)
	if out != "9\n5 11\n" {
		t.Errorf("output %q", out)
	}
}

func TestMatrixThroughPointers(t *testing.T) {
	out := runOutput(t, `
#define N 3
double mat[N][N];
double row_sum(double *row, int n) {
	int j;
	double s = 0.0;
	for (j = 0; j < n; j++) s += row[j];
	return s;
}
int main(void) {
	int i, j;
	for (i = 0; i < N; i++)
		for (j = 0; j < N; j++)
			mat[i][j] = i + j * 0.5;
	printf("%.1f %.1f\n", row_sum(mat[0], N), row_sum(mat[2], N));
	return 0;
}`)
	if out != "1.5 7.5\n" {
		t.Errorf("output %q", out)
	}
}

func TestCharPointerIdioms(t *testing.T) {
	out := runOutput(t, `
int my_strlen(char *s) {
	char *p = s;
	while (*p) p++;
	return (int)(p - s);
}
void my_strcpy(char *dst, char *src) {
	while ((*dst++ = *src++))
		;
}
int main(void) {
	char buf[32];
	my_strcpy(buf, "pointer idioms");
	printf("%d %s\n", my_strlen(buf), buf);
	return 0;
}`)
	if out != "14 pointer idioms\n" {
		t.Errorf("output %q", out)
	}
}

func TestCommaAndCompoundAssign(t *testing.T) {
	out := runOutput(t, `
int main(void) {
	int a = 1, b = 2, c;
	c = (a += 3, b *= a, a + b);
	printf("%d %d %d\n", a, b, c);
	int x = 0xF0;
	x |= 0x0F; x &= 0x3F; x ^= 0x01; x <<= 2; x >>= 1;
	printf("%d\n", x);
	return 0;
}`)
	if out != "4 8 12\n124\n" {
		t.Errorf("output %q", out)
	}
}

func TestEnumsAndTypedef(t *testing.T) {
	out := runOutput(t, `
typedef struct pair { int a, b; } Pair;
enum state { IDLE, BUSY = 5, DONE };
int main(void) {
	Pair p;
	p.a = IDLE;
	p.b = DONE;
	printf("%d %d %d\n", p.a, p.b, BUSY);
	return 0;
}`)
	if out != "0 6 5\n" {
		t.Errorf("output %q", out)
	}
}

func TestShadowingAndScopes(t *testing.T) {
	out := runOutput(t, `
int x = 100;
int main(void) {
	printf("%d ", x);
	int x = 1;
	{
		int x = 2;
		printf("%d ", x);
	}
	printf("%d\n", x);
	return 0;
}`)
	if out != "100 2 1\n" {
		t.Errorf("output %q", out)
	}
}

func TestNegativeModAndDiv(t *testing.T) {
	// C99 truncation toward zero.
	out := runOutput(t, `
int main(void) {
	printf("%d %d %d %d\n", -7 / 2, -7 % 2, 7 / -2, 7 % -2);
	return 0;
}`)
	if out != "-3 -1 -3 1\n" {
		t.Errorf("output %q", out)
	}
}

func TestProfileFunctionPointerCalls(t *testing.T) {
	// Indirect calls must be profiled as call sites and invocations.
	res := run(t, `
int f(void) { return 1; }
int g(void) { return 2; }
int main(void) {
	int (*fp)(void);
	int i, s = 0;
	for (i = 0; i < 6; i++) {
		fp = (i % 3 == 0) ? f : g;
		s += fp();
	}
	return s;
}`, interp.Options{})
	if res.ExitCode != 10 { // f twice (i=0,3), g four times
		t.Fatalf("exit %d, want 10", res.ExitCode)
	}
	p := res.Profile
	if p.FuncCalls[0] != 2 || p.FuncCalls[1] != 4 {
		t.Errorf("f=%g g=%g, want 2/4", p.FuncCalls[0], p.FuncCalls[1])
	}
	// The single indirect site fires 6 times.
	total := 0.0
	for _, c := range p.CallSiteCounts {
		total += c
	}
	if total != 6 {
		t.Errorf("site counts %v, want total 6", p.CallSiteCounts)
	}
}

func TestDeterministicProfiles(t *testing.T) {
	src := `
int main(void) {
	int i, s = 0;
	srand(42);
	for (i = 0; i < 100; i++) s += rand() % 10;
	printf("%d\n", s);
	return 0;
}`
	r1 := run(t, src, interp.Options{})
	r2 := run(t, src, interp.Options{})
	if string(r1.Output) != string(r2.Output) || r1.Steps != r2.Steps {
		t.Error("interpreter is not deterministic")
	}
	for i := range r1.Profile.BranchTaken {
		if r1.Profile.BranchTaken[i] != r2.Profile.BranchTaken[i] {
			t.Error("branch profiles differ between identical runs")
		}
	}
}

func TestOutputMatchesStrchrPaperExample(t *testing.T) {
	// Cross-check the builtin strchr against the paper's hand-rolled one.
	out := runOutput(t, `
char *my_strchr(char *str, int c) {
	while (*str) {
		if (*str == c) return str;
		str++;
	}
	return 0;
}
int main(void) {
	char *s = "hello world";
	char *a = my_strchr(s, 'o');
	char *b = strchr(s, 'o');
	printf("%d %d %d\n", a == b, (int)(a - s), *a);
	return 0;
}`)
	if !strings.HasPrefix(out, "1 4 111") {
		t.Errorf("output %q", out)
	}
}

// TestFirstLoweringSpan checks that a run which lowers its program to
// bytecode times the lowering as a bc.compile child of its interp.run
// span, and that a later run, which reuses the lowering, does not. A
// probe plan gets its own lowering, so its first sparse run lowers
// again.
func TestFirstLoweringSpan(t *testing.T) {
	cp := compile(t, `int main(void) { int i; int s; s = 0; for (i = 0; i < 3; i++) s += i; return s; }`)
	plan := probes.BuildPlan(cp, nil)
	for _, tc := range []struct {
		name     string
		opts     interp.Options
		compiles int
	}{
		{"first full", interp.Options{}, 1},
		{"second full", interp.Options{}, 0},
		{"first sparse", interp.Options{Instrumentation: interp.SparseInstrumentation, Plan: plan}, 1},
		{"second sparse", interp.Options{Instrumentation: interp.SparseInstrumentation, Plan: plan}, 0},
	} {
		sink := &spanSink{}
		tc.opts.Obs = obs.New(obs.WithSink(sink))
		if _, err := interp.Run(cp, tc.opts); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var runID int64
		var parents []int64
		for _, e := range sink.events {
			switch e.Name {
			case "interp.run":
				runID = e.ID
			case "bc.compile":
				parents = append(parents, e.Parent)
			}
		}
		if len(parents) != tc.compiles {
			t.Errorf("%s: %d bc.compile spans, want %d", tc.name, len(parents), tc.compiles)
		}
		for _, p := range parents {
			if p != runID {
				t.Errorf("%s: bc.compile parent %d, want the interp.run span %d", tc.name, p, runID)
			}
		}
	}
}

// TestReferenceRunsFullOnly pins that the tree-walking reference runs
// full instrumentation only: a sparse run is checked against it by
// reconstructing the run's profile (check.DiffRuns).
func TestReferenceRunsFullOnly(t *testing.T) {
	cp := compile(t, `int main(void) { return 0; }`)
	opts := interp.Options{Instrumentation: interp.SparseInstrumentation, Plan: probes.BuildPlan(cp, nil)}
	res, err := interp.RunReference(cp, opts)
	if want := "interp: the reference runs full instrumentation only"; err == nil || err.Error() != want || res != nil {
		t.Errorf("sparse reference run: result %v, error %v, want error %q", res, err, want)
	}
}
