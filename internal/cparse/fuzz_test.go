package cparse_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"staticest/internal/clex"
	"staticest/internal/cparse"
	"staticest/internal/gen"
)

// FuzzParse checks that the parser never panics: every input must yield
// either a *cast.File or an error, never a crash. It also checks the
// error precedence of a parser that lexes as it parses: when the source
// does not lex, ParseFile reports Tokenize's error word for word, and
// otherwise its error is never a lexical one. Seeds are the example
// corpus plus generated programs (loops, switches, recursion — shapes
// the hand-written seeds barely touch) and the hostile sources.
func FuzzParse(f *testing.F) {
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
	g := gen.New(1)
	for i := 0; i < 4; i++ {
		f.Add(g.Program())
	}
	f.Add([]byte("typedef int T; T f(T t) { return t; }"))
	f.Add([]byte("int f() { for(;;) break; }"))
	f.Add([]byte("struct s { struct s *next; };"))
	f.Add([]byte("int f(int a, ...) { return a; }"))
	f.Add([]byte("int x = "))
	for _, h := range hostileSources() {
		f.Add(h.src)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		file, err := cparse.ParseFile("fuzz.c", src)
		if err == nil && file == nil {
			t.Fatal("ParseFile returned nil file and nil error")
		}
		_, lexErr := clex.Tokenize("fuzz.c", src)
		var le *clex.Error
		switch {
		case lexErr != nil && (err == nil || err.Error() != lexErr.Error()):
			t.Fatalf("ParseFile err = %v, want Tokenize's %v", err, lexErr)
		case lexErr == nil && errors.As(err, &le):
			t.Fatalf("ParseFile reports lexical error %v on a source that lexes", err)
		}
	})
}
