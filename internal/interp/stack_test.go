package interp_test

import (
	"sync"
	"testing"

	"staticest/internal/cfg"
	"staticest/internal/interp"
	"staticest/internal/obs"
	"staticest/internal/suite"
)

// engineCase is a program and what it must do under both engines.
type engineCase struct {
	name, src string
	exit      int    // expected exit code when err is empty
	out       string // expected output when err is empty
	err       string // the whole expected error text, position included
	steps     int64  // expected step count, when non-zero
}

// engines are the two entries every engine case runs under.
var engines = []struct {
	name string
	run  func(*cfg.Program, interp.Options) (*interp.Result, error)
}{{"bytecode", interp.Run}, {"reference", interp.RunReference}}

// runEngineCases runs each case under both engines with a budget of a
// million steps.
func runEngineCases(t *testing.T, cases []engineCase) {
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cp := compile(t, tc.src)
			for _, e := range engines {
				res, err := e.run(cp, interp.Options{MaxSteps: 1_000_000})
				switch {
				case tc.err != "":
					if err == nil || err.Error() != tc.err {
						t.Errorf("%s: error %v, want %q", e.name, err, tc.err)
					}
				case err != nil:
					t.Errorf("%s: %v", e.name, err)
				default:
					if res.ExitCode != tc.exit {
						t.Errorf("%s: exit %d, want %d", e.name, res.ExitCode, tc.exit)
					}
					if string(res.Output) != tc.out {
						t.Errorf("%s: output %q, want %q", e.name, res.Output, tc.out)
					}
					if tc.steps != 0 && res.Steps != tc.steps {
						t.Errorf("%s: %d steps, want %d", e.name, res.Steps, tc.steps)
					}
				}
			}
		})
	}
}

// stackCases pin the simulated stack's observable behaviour at its
// edges: frames, dangling and far reads, faults at its end, and
// builtins and struct copies whose source lies deep in an untouched
// region. Each result below was recorded before the stack's backing
// array grew on demand.
var stackCases = []engineCase{
	{name: "overflow", src: `
int f(int n) {
	char buf[1000];
	buf[999] = 1;
	return n == 0 ? 0 : f(n - 1) + buf[999];
}
int main(void) { return f(100000); }`,
		err: "runtime error at test.c:5:23: simulated stack overflow in f"},
	{name: "dangling", src: `
int *g(void) { int x; x = 42; return &x; }
int main(void) { int *p; p = g(); return *p; }`,
		exit: 42},
	{name: "untouched read", src: `
int main(void) { char c; char *p; p = &c; return p[4000000] + 7; }`,
		exit: 7},
	{name: "past the end", src: `
int main(void) { char c; char *p; p = &c; return p[8388608]; }`,
		err: `runtime error at test.c:2:51: out-of-bounds access: offset 8388608 size 1 in "stack" (8388608 bytes)`},
	{name: "strlen untouched", src: `
int main(void) { char c; char *p; p = &c; return strlen(p + 100000) + 3; }`,
		exit: 3},
	{name: "strlen at the end", src: `
int main(void) { char c; char *p; p = &c; return strlen(p + 8388608); }`,
		err: `runtime error at test.c:2:56: unterminated string in "stack"`},
	{name: "strlen past the end", src: `
int main(void) { char c; char *p; p = &c; return strlen(p + 8388609); }`,
		err: "runtime error at test.c:2:56: string pointer out of bounds"},
	// Each frame writes its buffer before the deeper frames grow the
	// stack and reads it back after they return.
	{name: "3000 frames", src: `
int f(int n) {
	char buf[2048];
	buf[0] = n % 10;
	buf[2047] = 1;
	return n == 0 ? buf[0] + buf[2047] : f(n - 1) + buf[0] + buf[2047];
}
int main(void) {
	int r;
	r = f(2999);
	if (r < 0)
		return 0;
	return r % 251;
}`,
		exit: 185, steps: 3002},
	// A write must land even when reading the source grows the stack.
	{name: "memcpy", src: `
int main(void) {
	char buf[8]; char *p;
	buf[0] = 9; p = buf;
	memcpy(buf, p + 3000000, 4);
	return buf[0] + 1;
}`,
		exit: 1},
	{name: "strcpy", src: `
int main(void) {
	char buf[8]; char *p;
	buf[0] = 9; p = buf;
	strcpy(buf, p + 3000000);
	return buf[0] + 1;
}`,
		exit: 1},
	{name: "sprintf", src: `
int main(void) {
	char buf[8]; char *p;
	buf[0] = 9; p = buf;
	sprintf(buf, "%s", p + 3000000);
	return buf[0] + 1;
}`,
		exit: 1},
	{name: "strcat", src: `
int main(void) {
	char buf[8]; char *p;
	buf[0] = 0; p = buf;
	strcat(buf, p + 3000000);
	return buf[0] + 1;
}`,
		exit: 1},
	{name: "struct copy", src: `
struct S { int a; int b; };
int main(void) {
	struct S s; struct S *q;
	s.a = 5; q = &s;
	s = q[400000];
	return s.a + 1;
}`,
		exit: 1},
	// Both pointers are bad: the destination's fault is the one reported.
	{name: "memcpy fault order", src: `
int main(void) { char c; char *p; p = &c; memcpy(0, p + 9000000, 4); return 0; }`,
		err: "runtime error at test.c:2:49: null pointer dereference"},
	{name: "memset", src: `
int main(void) {
	char c; char *p; p = &c;
	memset(p + 6000000, 3, 10);
	return p[6000005] + p[6000010];
}`,
		exit: 3},
	{name: "write then read", src: `
int main(void) {
	char c; char *p; p = &c;
	p[3000000] = 11;
	p[6000000] = 1;
	return p[3000000] + p[6000000];
}`,
		exit: 12},
}

func TestStackEdgeCases(t *testing.T) { runEngineCases(t, stackCases) }

// spanSink keeps the span events of one observer.
type spanSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (s *spanSink) Emit(e obs.Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// stackBytes runs cp under run with an observer and returns the
// stack_bytes attribute of its interp.run span: the length of the
// stack's backing array when the run ended.
func stackBytes(t *testing.T, run func(*cfg.Program, interp.Options) (*interp.Result, error),
	cp *cfg.Program, opts interp.Options) int64 {
	t.Helper()
	sink := &spanSink{}
	opts.Obs = obs.New(obs.WithSink(sink))
	if _, err := run(cp, opts); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, e := range sink.events {
		if e.Name == "interp.run" {
			n, ok := e.Attrs["stack_bytes"].(int64)
			if !ok {
				t.Fatalf("interp.run span has no int64 stack_bytes: %v", e.Attrs)
			}
			return n
		}
	}
	t.Fatal("no interp.run span")
	return 0
}

const (
	stackInit = 16 << 10 // the stack's initial backing array
	stackSize = 8 << 20  // its size as the program sees it
)

// TestStackGrowsOnDemand checks the stack's backing array, not just
// what the program sees: no suite input grows it past its initial
// 16 KiB, and a deep recursion grows it, but never past the stack's
// logical size and never past twice the deepest offset it touched.
func TestStackGrowsOnDemand(t *testing.T) {
	for _, p := range suite.Programs() {
		u, err := p.CompileCached()
		if err != nil {
			t.Fatalf("%s: compile: %v", p.Name, err)
		}
		for _, in := range p.Inputs {
			if n := stackBytes(t, interp.Run, u.CFG, interp.Options{Args: in.Args, Stdin: in.Stdin}); n != stackInit {
				t.Errorf("%s/%s: stack grew to %d bytes, want %d", p.Name, in.Name, n, stackInit)
			}
		}
	}
	for _, tc := range []struct {
		name     string
		min, max int64 // bounds on the final backing array
	}{
		// About 2 KB per frame, 3,000 deep: over 6 MB is touched.
		{"3000 frames", 6_000_000, stackSize},
		{"untouched read", 4_000_000, 2 * 4_000_016},
		{"strlen untouched", 100_000, 2 * 100_016},
		{"dangling", stackInit, stackInit},
	} {
		src := ""
		for _, c := range stackCases {
			if c.name == tc.name {
				src = c.src
			}
		}
		cp := compile(t, src)
		for _, e := range engines {
			if n := stackBytes(t, e.run, cp, interp.Options{}); n < tc.min || n > tc.max {
				t.Errorf("%s/%s: stack is %d bytes, want [%d, %d]", tc.name, e.name, n, tc.min, tc.max)
			}
		}
	}
}
