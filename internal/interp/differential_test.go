package interp_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"staticest/internal/interp"
)

// This file cross-checks the interpreter's integer arithmetic against a
// Go model of C `int` semantics: every operation computes on int64
// operands and truncates the result to int32, which is exactly what the
// evaluator does. Random expression trees are rendered to C, run under
// the interpreter, and compared against the model.

type genExpr struct {
	c    string
	eval func(env []int64) int64
}

func trunc32(v int64) int64 { return int64(int32(v)) }

// gen builds a random expression over variables a..e (env indices 0..4).
func gen(rng *rand.Rand, depth int) genExpr {
	if depth <= 0 || rng.Intn(4) == 0 {
		if rng.Intn(2) == 0 {
			v := int64(rng.Intn(201) - 100)
			return genExpr{
				c:    fmt.Sprintf("%d", v),
				eval: func([]int64) int64 { return v },
			}
		}
		i := rng.Intn(5)
		return genExpr{
			c:    string(rune('a' + i)),
			eval: func(env []int64) int64 { return env[i] },
		}
	}
	l := gen(rng, depth-1)
	r := gen(rng, depth-1)
	switch rng.Intn(12) {
	case 0:
		return bin(l, r, "+", func(a, b int64) int64 { return trunc32(a + b) })
	case 1:
		return bin(l, r, "-", func(a, b int64) int64 { return trunc32(a - b) })
	case 2:
		return bin(l, r, "*", func(a, b int64) int64 { return trunc32(a * b) })
	case 3:
		// Guard the divisor: (r | 1) is never zero.
		return genExpr{
			c: fmt.Sprintf("(%s / (%s | 1))", l.c, r.c),
			eval: func(env []int64) int64 {
				return trunc32(l.eval(env) / (r.eval(env) | 1))
			},
		}
	case 4:
		return genExpr{
			c: fmt.Sprintf("(%s %% (%s | 1))", l.c, r.c),
			eval: func(env []int64) int64 {
				return trunc32(l.eval(env) % (r.eval(env) | 1))
			},
		}
	case 5:
		return bin(l, r, "&", func(a, b int64) int64 { return trunc32(a & b) })
	case 6:
		return bin(l, r, "|", func(a, b int64) int64 { return trunc32(a | b) })
	case 7:
		return bin(l, r, "^", func(a, b int64) int64 { return trunc32(a ^ b) })
	case 8:
		n := rng.Intn(8)
		return genExpr{
			c: fmt.Sprintf("(%s << %d)", l.c, n),
			eval: func(env []int64) int64 {
				return trunc32(l.eval(env) << uint(n))
			},
		}
	case 9:
		n := rng.Intn(8)
		return genExpr{
			c: fmt.Sprintf("(%s >> %d)", l.c, n),
			eval: func(env []int64) int64 {
				return trunc32(l.eval(env) >> uint(n))
			},
		}
	case 10:
		return bin(l, r, "<", func(a, b int64) int64 { return b2i(a < b) })
	default:
		cnd := gen(rng, depth-1)
		return genExpr{
			c: fmt.Sprintf("(%s ? %s : %s)", cnd.c, l.c, r.c),
			eval: func(env []int64) int64 {
				if cnd.eval(env) != 0 {
					return l.eval(env)
				}
				return r.eval(env)
			},
		}
	}
}

func bin(l, r genExpr, op string, f func(a, b int64) int64) genExpr {
	return genExpr{
		c: fmt.Sprintf("(%s %s %s)", l.c, op, r.c),
		eval: func(env []int64) int64 {
			return f(l.eval(env), r.eval(env))
		},
	}
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func TestDifferentialIntegerExpressions(t *testing.T) {
	rng := rand.New(rand.NewSource(20260704))
	const trials = 60
	const exprsPerTrial = 8
	for trial := 0; trial < trials; trial++ {
		env := make([]int64, 5)
		var decls strings.Builder
		for i := range env {
			env[i] = int64(rng.Intn(2001) - 1000)
			fmt.Fprintf(&decls, "int %c = %d;\n", 'a'+i, env[i])
		}
		var exprs []genExpr
		var body strings.Builder
		for i := 0; i < exprsPerTrial; i++ {
			e := gen(rng, 4)
			exprs = append(exprs, e)
			fmt.Fprintf(&body, "printf(\"%%d\\n\", %s);\n", e.c)
		}
		src := decls.String() + "int main(void) {\n" + body.String() + "return 0;\n}\n"
		res := run(t, src, interp.Options{})
		lines := strings.Split(strings.TrimSpace(string(res.Output)), "\n")
		if len(lines) != exprsPerTrial {
			t.Fatalf("trial %d: %d output lines, want %d\nsource:\n%s",
				trial, len(lines), exprsPerTrial, src)
		}
		for i, e := range exprs {
			want := fmt.Sprintf("%d", int32(e.eval(env)))
			if lines[i] != want {
				t.Errorf("trial %d expr %d: interpreter says %s, model says %s\nexpr: %s\nenv: %v",
					trial, i, lines[i], want, e.c, env)
			}
		}
	}
}

// TestDifferentialUnsigned repeats the exercise for unsigned int
// arithmetic, whose wrap-around and comparison rules differ.
func TestDifferentialUnsigned(t *testing.T) {
	rng := rand.New(rand.NewSource(1994))
	for trial := 0; trial < 40; trial++ {
		a := uint32(rng.Uint64())
		b := uint32(rng.Uint64())
		if b == 0 {
			b = 1
		}
		src := fmt.Sprintf(`
unsigned int a = %du;
unsigned int b = %du;
int main(void) {
	printf("%%u %%u %%u %%u %%u %%d\n", a + b, a - b, a * b, a / b, a %% b, a < b ? 1 : 0);
	return 0;
}`, a, b)
		res := run(t, src, interp.Options{})
		want := fmt.Sprintf("%d %d %d %d %d %d\n",
			a+b, a-b, a*b, a/b, a%b, b2i(uint64(a) < uint64(b)))
		if string(res.Output) != want {
			t.Errorf("trial %d (a=%d b=%d):\n got %q\nwant %q", trial, a, b, res.Output, want)
		}
	}
}

// TestDifferentialTypeGrid runs every binary operator, compound
// assignment, increment and conditional on every pair of arithmetic
// types under both engines and compares what each statement printed.
// The bytecode resolves these types at lowering, the tree walker from
// the operand values, so a type the lowering gets wrong shows up as a
// line that differs.
func TestDifferentialTypeGrid(t *testing.T) {
	types := []struct{ name, init string }{
		{"char", "100"}, {"unsigned char", "200"}, {"short", "30000"},
		{"unsigned short", "60000"}, {"int", "2000000000"}, {"unsigned", "4000000000u"},
		{"long", "9000000000000000000L"}, {"unsigned long", "-3"},
		{"float", "16777217"}, {"double", "0.1"},
	}
	intOps := []string{"%", "&", "|", "^", "<<", ">>"}
	ops := []string{"+", "-", "*", "/", "<", ">", "<=", ">=", "==", "!="}
	var src strings.Builder
	src.WriteString("int main(void) {\n\tint k = 1;\n")
	for i, l := range types {
		fmt.Fprintf(&src, "\t%s a%d;\n\t%s b%d;\n", l.name, i, l.name, i)
	}
	var stmts []string
	for i, l := range types {
		stmts = append(stmts, fmt.Sprintf(`a%d = %s; printf("%%f %%f %%f %%f\n", (double)(a%d++), (double)(++a%d), (double)(a%d--), (double)(--a%d));`,
			i, l.init, i, i, i, i))
		for j, r := range types {
			both := ops
			if !strings.Contains(l.name+r.name, "float") && !strings.Contains(l.name+r.name, "double") {
				both = append(append([]string{}, ops...), intOps...)
			}
			for _, op := range both {
				stmts = append(stmts, fmt.Sprintf(`a%d = %s; b%d = %s; printf("%%f\n", (double)(a%d %s b%d));`,
					i, l.init, j, r.init, i, op, j))
				if len(op) == 1 || op == "<<" || op == ">>" {
					stmts = append(stmts, fmt.Sprintf(`printf("%%f %%f\n", (double)(a%d %s= b%d), (double)a%d);`,
						i, op, j, i))
				}
			}
			stmts = append(stmts, fmt.Sprintf(`printf("%%f\n", (double)(k ? a%d : b%d));`, i, j))
		}
	}
	for _, s := range stmts {
		src.WriteString("\t" + s + "\n")
	}
	src.WriteString("\treturn 0;\n}\n")
	cp := compile(t, src.String())
	var outs [2][]string
	for n, e := range engines {
		res, err := e.run(cp, interp.Options{})
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		outs[n] = strings.Split(string(res.Output), "\n")
	}
	if len(outs[0]) != len(outs[1]) {
		t.Fatalf("%d lines under bytecode, %d under reference", len(outs[0]), len(outs[1]))
	}
	for i := range outs[0] {
		if outs[0][i] != outs[1][i] {
			t.Errorf("%s\nbytecode: %s\nreference: %s", stmts[i], outs[0][i], outs[1][i])
		}
	}
}
