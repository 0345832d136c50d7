package interp_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"staticest"
	"staticest/internal/check"
	progen "staticest/internal/gen"
	"staticest/internal/interp"
)

// FuzzInterp fuzzes the bytecode lowering against its reference: for
// every input that compiles, interp.Run and interp.RunReference run
// under the same step cap, in full mode and in sparse mode with the
// unit's probe plan, and must agree on the error text or on every
// observable check.DiffRuns compares. Most mutated inputs won't compile,
// and those that do may divide by zero or run out of steps; both entries
// must then fail the same way. Seeds come from the example corpus and
// from the generator, whose programs exercise the interpreter far
// deeper than hand-written seeds (nested loops, recursion, switches,
// exit paths).
func FuzzInterp(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "corpus", "*.c"))
	if err != nil {
		f.Fatalf("glob corpus: %v", err)
	}
	if len(paths) == 0 {
		f.Fatal("no seed corpus files found under examples/corpus")
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatalf("read %s: %v", p, err)
		}
		f.Add(src)
	}
	g := progen.New(1)
	for i := 0; i < 8; i++ {
		f.Add(g.Program())
	}
	f.Add([]byte("int main(void) { return 1 / 0; }"))
	f.Add([]byte("int f(int n) { return f(n); } int main(void) { return f(1); }"))
	f.Add([]byte("int main(void) { while (1) {} }"))
	f.Fuzz(func(t *testing.T, src []byte) {
		u, err := staticest.Compile("fuzz.c", src)
		if err != nil {
			return
		}
		full := staticest.RunOptions{MaxSteps: 50_000}
		sparse := full
		sparse.Instrumentation = staticest.SparseInstrumentation
		sparse.Plan = u.PlanProbes()
		for _, opts := range []staticest.RunOptions{full, sparse} {
			ref, refErr := interp.RunReference(u.CFG, opts)
			got, err := interp.Run(u.CFG, opts)
			if fmt.Sprint(refErr) != fmt.Sprint(err) {
				t.Fatalf("instrumentation %d: error: tree %v, bytecode %v", opts.Instrumentation, refErr, err)
			}
			if err != nil {
				continue
			}
			if ref == nil || got == nil {
				t.Fatal("a run returned a nil result and a nil error")
			}
			if d := check.DiffRuns(ref, got); len(d) > 0 {
				t.Fatalf("instrumentation %d: %s", opts.Instrumentation, strings.Join(d, "; "))
			}
		}
	})
}
