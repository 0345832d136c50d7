package ctoken

import "testing"

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{
		EOF:       "EOF",
		Ident:     "identifier",
		KwWhile:   "while",
		AndAnd:    "&&",
		Ellipsis:  "...",
		ShrAssign: ">>=",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(9999).String(); got != "Kind(9999)" {
		t.Errorf("unknown kind = %q", got)
	}
}

func TestKeywordsTableComplete(t *testing.T) {
	// Every keyword kind must be reachable from the spelling table.
	// The lexer gives a keyword token its kind's name as text, so the
	// name must be the spelling.
	seen := map[Kind]bool{}
	for spelling, k := range Keywords {
		seen[k] = true
		if k.String() != spelling {
			t.Errorf("%q lexes as %v, whose name differs", spelling, k)
		}
	}
	for k := KwBreak; k <= KwWhile; k++ {
		if !seen[k] {
			t.Errorf("keyword kind %v missing from Keywords", k)
		}
	}
}

func TestIsTypeKeyword(t *testing.T) {
	for _, k := range []Kind{KwInt, KwVoid, KwStruct, KwUnsigned, KwConst} {
		if !k.IsTypeKeyword() {
			t.Errorf("%v should start a type", k)
		}
	}
	if KwReturn.IsTypeKeyword() || Ident.IsTypeKeyword() {
		t.Error("non-type keyword classified as type")
	}
}

func TestPos(t *testing.T) {
	p := Pos{File: "x.c", Line: 3, Col: 7}
	if p.String() != "x.c:3:7" {
		t.Errorf("pos = %q", p.String())
	}
	if (Pos{}).IsValid() {
		t.Error("zero position should be invalid")
	}
	if noFile := (Pos{Line: 1, Col: 2}).String(); noFile != "1:2" {
		t.Errorf("file-less pos = %q", noFile)
	}
}

func TestTokenString(t *testing.T) {
	tok := Token{Kind: IntLit, Text: "42"}
	if tok.String() != `integer literal "42"` {
		t.Errorf("token string = %q", tok.String())
	}
	str := Token{Kind: StrLit, Text: "hi"}
	if str.String() != `string "hi"` {
		t.Errorf("string token = %q", str.String())
	}
	if (Token{Kind: Semi}).String() != ";" {
		t.Error("operator token string wrong")
	}
}
