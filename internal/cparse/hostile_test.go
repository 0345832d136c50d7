package cparse_test

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"staticest"
	"staticest/internal/clex"
	"staticest/internal/cparse"
)

// A shape nests a source levels deep: prefix, then open levels times,
// inner, close levels times, and suffix.
type shape struct{ name, prefix, open, inner, close, suffix string }

func (s shape) src(levels int) []byte {
	var b bytes.Buffer
	b.WriteString(s.prefix)
	for i := 0; i < levels; i++ {
		b.WriteString(s.open)
	}
	b.WriteString(s.inner)
	for i := 0; i < levels; i++ {
		b.WriteString(s.close)
	}
	b.WriteString(s.suffix)
	return b.Bytes()
}

// nestingShapes are the ways a source can nest its tree deeper than
// MaxDepth. At levels of a few hundred thousand, a Go stack overflow in
// the parser or the semantic pass ends the process: it is fatal, not a
// panic a server can recover from.
var nestingShapes = []shape{
	{"parentheses", "int main(void) { return ", "(", "1", ")", "; }"},
	{"unary minus", "int main(void) { return ", "- ", "1", "", "; }"},
	{"blocks", "int main(void) { ", "{", "", "}", " return 0; }"},
	{"assignments", "int a; int main(void) { ", "a=", "1", "", "; return a; }"},
	{"sums", "int main(void) { return 1", "", "", "+1", "; }"},
	{"casts", "int main(void) { return ", "(int)", "1", "", "; }"},
	{"conditionals", "int a; int main(void) { return ", "a?1:", "0", "", "; }"},
	{"calls", "int f(int x) { return x; } int main(void) { return ", "f(", "1", ")", "; }"},
	{"initializer lists", "int a[1] = ", "{", "1", "}", "; int main(void) { return a[0]; }"},
	{"declarators", "int ", "(*", "p", ")", "; int main(void) { return 0; }"},
	{"struct bodies", "", "struct { ", "int x;", " } f;", " int main(void) { return 0; }"},
	{"if statements", "int main(void) { ", "if (1) ", "return 1;", "", " return 0; }"},
}

// nestedChains nests comma chains in their first operands. A chain's
// nodes sit above its first operand, so the chains stack: levels of
// eight commas build a tree eight times as high as the parentheses
// open at any one token.
var nestedChains = shape{"chains nested in their first operands",
	"int a; int main(void) { return ", "(", "a", ",a,a,a,a,a,a,a,a)", "; }"}

// stackedTypedefs declares T2 as T1 with stars more pointer levels,
// and T1 as int with stars of its own: each declarator is within the
// bound, while T2's type is twice as high.
func stackedTypedefs(stars int) []byte {
	ptrs := strings.Repeat("*", stars)
	return []byte("typedef int " + ptrs + "T1;\ntypedef T1 " + ptrs + "T2;\nint main(void) { return 0; }\n")
}

// levelFour defines macros A1 to A4, each sixteen copies of the one
// before, in 306 bytes. Bodies are stored expanded, so A4 alone would be
// 983,040 tokens (about 70 MB) without a single use.
func levelFour() []byte {
	var b strings.Builder
	b.WriteString("#define A0 1 + 1 + 1 + 1 + 1 + 1 + 1 + 1\n")
	for k := 1; k <= 4; k++ {
		fmt.Fprintf(&b, "#define A%d", k)
		for i := 0; i < 16; i++ {
			fmt.Fprintf(&b, " A%d", k-1)
		}
		b.WriteString("\n")
	}
	b.WriteString("int main(void) { return 0; }\n")
	return []byte(b.String())
}

// A hostile source is one a bound rejects, with the error it must get.
type hostile struct {
	name string
	src  []byte
	want string
}

// hostileSources are every nesting shape one level past MaxDepth, nested
// chains whose tree is past it though their parentheses are not, typedefs
// whose type is past it though each declarator is not, and the level-four
// macro source.
func hostileSources() []hostile {
	tooDeep := fmt.Sprintf("nesting exceeds the %d-level limit", cparse.MaxDepth)
	var out []hostile
	for _, s := range nestingShapes {
		out = append(out, hostile{s.name, s.src(cparse.MaxDepth + 1), tooDeep})
	}
	return append(out,
		hostile{nestedChains.name, nestedChains.src(cparse.MaxDepth / 8), tooDeep},
		hostile{"stacked typedefs", stackedTypedefs(cparse.MaxDepth/2 + 1), tooDeep},
		hostile{"macro expansion", levelFour(), fmt.Sprintf("macro expansion exceeds the %d-token limit", clex.MaxExpansion)})
}

// TestHostileSources compiles sources that once ended the process or
// took hundreds of megabytes. Each must get its error, and sources under
// the bounds must still compile: the semantic pass, which recurses to
// the tree's height, runs on them.
func TestHostileSources(t *testing.T) {
	for _, h := range hostileSources() {
		_, err := staticest.Compile("hostile.c", h.src)
		if err == nil || !strings.Contains(err.Error(), h.want) {
			t.Errorf("%s (%d bytes): err = %v, want %q", h.name, len(h.src), err, h.want)
		}
	}
	for _, s := range nestingShapes {
		if _, err := staticest.Compile("deep.c", s.src(cparse.MaxDepth/4)); err != nil {
			t.Errorf("%s at %d levels: %v", s.name, cparse.MaxDepth/4, err)
		}
	}
	if _, err := staticest.Compile("deep.c", nestedChains.src(cparse.MaxDepth/32)); err != nil {
		t.Errorf("%s at %d levels: %v", nestedChains.name, cparse.MaxDepth/32, err)
	}
	if _, err := staticest.Compile("deep.c", stackedTypedefs(cparse.MaxDepth/4)); err != nil {
		t.Errorf("stacked typedefs of %d pointers each: %v", cparse.MaxDepth/4, err)
	}

	// A million levels of unary minus overflow the stack of a parser
	// without the bound.
	src := nestingShapes[1].src(1_000_000)
	if _, err := staticest.Compile("minus.c", src); err == nil || !strings.Contains(err.Error(), "level limit") {
		t.Errorf("1,000,000 unary minuses: err = %v, want the depth limit", err)
	}

	// A dense body: one token per byte. The parser streams its tokens,
	// so the compile holds no slice of all of them.
	src = []byte("int main(void) {" + strings.Repeat(";", 256<<10) + "}")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := staticest.Compile("semis.c", src)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("256 KiB of ';': %v", err)
	}
	const limit = 48 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Errorf("256 KiB of ';' allocated %d bytes to compile, want at most %d", got, limit)
	}
}
