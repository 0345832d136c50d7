package clex

import (
	"strings"
	"testing"

	"staticest/internal/ctoken"
)

func kinds(t *testing.T, src string) []ctoken.Kind {
	t.Helper()
	toks, err := Tokenize("t.c", []byte(src))
	if err != nil {
		t.Fatalf("Tokenize(%q): %v", src, err)
	}
	out := make([]ctoken.Kind, 0, len(toks)-1)
	for _, tok := range toks {
		if tok.Kind != ctoken.EOF {
			out = append(out, tok.Kind)
		}
	}
	return out
}

func TestOperators(t *testing.T) {
	src := `+ - * / % ++ -- += -= *= /= %= == != <= >= < > << >> <<= >>= && || & | ^ ~ ! = -> . ... ? : ; , ( ) [ ] { }`
	want := []ctoken.Kind{
		ctoken.Plus, ctoken.Minus, ctoken.Star, ctoken.Slash, ctoken.Percent,
		ctoken.Inc, ctoken.Dec, ctoken.AddAssign, ctoken.SubAssign,
		ctoken.MulAssign, ctoken.DivAssign, ctoken.RemAssign,
		ctoken.EqEq, ctoken.NotEq, ctoken.Le, ctoken.Ge, ctoken.Lt, ctoken.Gt,
		ctoken.Shl, ctoken.Shr, ctoken.ShlAssign, ctoken.ShrAssign,
		ctoken.AndAnd, ctoken.OrOr, ctoken.Amp, ctoken.Pipe, ctoken.Caret,
		ctoken.Tilde, ctoken.Not, ctoken.Assign, ctoken.Arrow, ctoken.Dot,
		ctoken.Ellipsis, ctoken.Question, ctoken.Colon, ctoken.Semi,
		ctoken.Comma, ctoken.LParen, ctoken.RParen, ctoken.LBrack,
		ctoken.RBrack, ctoken.LBrace, ctoken.RBrace,
	}
	got := kinds(t, src)
	if len(got) != len(want) {
		t.Fatalf("got %d tokens, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("token %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestIntLiterals(t *testing.T) {
	cases := []struct {
		src      string
		val      uint64
		unsigned bool
		long     bool
	}{
		{"0", 0, false, false},
		{"42", 42, false, false},
		{"0x1f", 31, false, false},
		{"0X1F", 31, false, false},
		{"017", 15, false, false},
		{"42u", 42, true, false},
		{"42L", 42, false, true},
		{"42UL", 42, true, true},
		{"1ul", 1, true, true},
		// The largest value of each base still fits.
		{"18446744073709551615", 1<<64 - 1, true, false},
		{"0xFFFFFFFFFFFFFFFF", 1<<64 - 1, true, false},
		{"01777777777777777777777", 1<<64 - 1, true, false},
		{"9223372036854775807", 1<<63 - 1, false, false},
	}
	for _, tc := range cases {
		toks, err := Tokenize("t.c", []byte(tc.src))
		if err != nil {
			t.Errorf("%q: %v", tc.src, err)
			continue
		}
		tok := toks[0]
		if tok.Kind != ctoken.IntLit || tok.IntVal != tc.val ||
			tok.Unsigned != tc.unsigned || tok.Long != tc.long {
			t.Errorf("%q = %+v, want val=%d u=%v l=%v", tc.src, tok, tc.val, tc.unsigned, tc.long)
		}
	}
}

func TestFloatLiterals(t *testing.T) {
	cases := map[string]float64{
		"1.5": 1.5, "0.25": 0.25, ".5": 0.5, "1e3": 1000, "2.5e-2": 0.025,
		"1E2": 100, "3.0f": 3,
	}
	for src, want := range cases {
		toks, err := Tokenize("t.c", []byte(src))
		if err != nil {
			t.Errorf("%q: %v", src, err)
			continue
		}
		if toks[0].Kind != ctoken.FloatLit || toks[0].FloatVal != want {
			t.Errorf("%q = %+v, want %g", src, toks[0], want)
		}
	}
}

func TestCharAndStringLiterals(t *testing.T) {
	toks, err := Tokenize("t.c", []byte(`'a' '\n' '\0' '\x41' '\\' "hi\tthere" ; "a" "b" '\377' '\x0ff'`))
	if err != nil {
		t.Fatal(err)
	}
	wantChars := []uint64{'a', '\n', 0, 0x41, '\\'}
	for i, w := range wantChars {
		if toks[i].Kind != ctoken.CharLit || toks[i].IntVal != w {
			t.Errorf("char %d = %+v, want %d", i, toks[i], w)
		}
	}
	if toks[5].Text != "hi\tthere" {
		t.Errorf("string = %q", toks[5].Text)
	}
	// Adjacent string literals concatenate into one token.
	if toks[7].Text != "ab" {
		t.Errorf("concatenated = %q", toks[7].Text)
	}
	// The largest escapes still fit in a byte.
	for _, tok := range toks[8:10] {
		if tok.Kind != ctoken.CharLit || tok.IntVal != 0xff {
			t.Errorf("escape = %+v, want 255", tok)
		}
	}
}

func TestComments(t *testing.T) {
	got := kinds(t, "a /* block\ncomment */ b // line\nc")
	if len(got) != 3 {
		t.Fatalf("%d tokens, want 3 idents", len(got))
	}
}

func TestPositions(t *testing.T) {
	toks, err := Tokenize("f.c", []byte("a\n  b"))
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Pos.Line != 1 || toks[0].Pos.Col != 1 {
		t.Errorf("a at %v", toks[0].Pos)
	}
	if toks[1].Pos.Line != 2 || toks[1].Pos.Col != 3 {
		t.Errorf("b at %v", toks[1].Pos)
	}
	if s := toks[1].Pos.String(); s != "f.c:2:3" {
		t.Errorf("pos string %q", s)
	}
}

func TestDefineAndUndef(t *testing.T) {
	src := "#define N 3\nint a = N;\n#undef N\nint N;"
	toks, err := Tokenize("t.c", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	var texts []string
	for _, tok := range toks {
		if tok.Kind == ctoken.EOF {
			break
		}
		texts = append(texts, tok.String())
	}
	joined := strings.Join(texts, " ")
	if !strings.Contains(joined, `integer literal "3"`) {
		t.Errorf("macro not expanded: %s", joined)
	}
	if !strings.Contains(joined, `identifier "N"`) {
		t.Errorf("undef not honored: %s", joined)
	}
}

func TestIncludeIgnored(t *testing.T) {
	got := kinds(t, "#include <stdio.h>\nint x;")
	if len(got) != 3 { // int, x, ;
		t.Errorf("%d tokens after include, want 3", len(got))
	}
}

func TestLexErrors(t *testing.T) {
	bad := []string{
		"\"unterminated",
		"'",
		"'ab",
		"/* unterminated",
		"#define X(",
		"#pragma once",
		"@",
		// Integer literals whose value does not fit in 64 bits, including
		// ones whose multiply wraps past the previous value.
		"30000000000000000000",
		"0x1FFFFFFFFFFFFFFFF",
		"03777777777777777777777",
		// A hex prefix with no digits.
		"0x",
		"0X",
		// Escapes above 255 in character and string literals.
		`'\400'`,
		`'\xfff'`,
		`"a\400"`,
		`"\x100"`,
	}
	for _, src := range bad {
		if _, err := Tokenize("t.c", []byte(src)); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
	// "1.5e" without exponent digits: '1.5' then identifier 'e'.
	toks, err := Tokenize("t.c", []byte("1.5e"))
	if err != nil {
		t.Fatalf("1.5e: %v", err)
	}
	if toks[0].Kind != ctoken.FloatLit || toks[1].Kind != ctoken.Ident {
		t.Errorf("1.5e lexed as %v %v", toks[0], toks[1])
	}
}

func TestKeywords(t *testing.T) {
	got := kinds(t, "if else while for do switch case default break continue return goto struct enum typedef sizeof")
	want := []ctoken.Kind{
		ctoken.KwIf, ctoken.KwElse, ctoken.KwWhile, ctoken.KwFor, ctoken.KwDo,
		ctoken.KwSwitch, ctoken.KwCase, ctoken.KwDefault, ctoken.KwBreak,
		ctoken.KwContinue, ctoken.KwReturn, ctoken.KwGoto, ctoken.KwStruct,
		ctoken.KwEnum, ctoken.KwTypedef, ctoken.KwSizeof,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("keyword %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestLineContinuation(t *testing.T) {
	got := kinds(t, "int \\\n x;")
	if len(got) != 3 {
		t.Errorf("%d tokens, want 3", len(got))
	}
}
