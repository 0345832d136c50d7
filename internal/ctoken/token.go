// Package ctoken defines the lexical tokens of the C subset understood by
// this library, along with operator precedence used by the parser.
package ctoken

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds. Literal and identifier kinds carry their text in Token.Text.
const (
	EOF Kind = iota
	Ident
	IntLit   // 123, 0x1f, 017, with optional U/L suffixes
	FloatLit // 1.5, 1e-3, .5
	CharLit  // 'a', '\n'
	StrLit   // "abc" (value after escape processing)

	// Keywords.
	KwBreak
	KwCase
	KwChar
	KwConst
	KwContinue
	KwDefault
	KwDo
	KwDouble
	KwElse
	KwEnum
	KwExtern
	KwFloat
	KwFor
	KwGoto
	KwIf
	KwInt
	KwLong
	KwRegister
	KwReturn
	KwShort
	KwSigned
	KwSizeof
	KwStatic
	KwStruct
	KwSwitch
	KwTypedef
	KwUnion
	KwUnsigned
	KwVoid
	KwVolatile
	KwWhile

	// Punctuation and operators.
	LParen   // (
	RParen   // )
	LBrace   // {
	RBrace   // }
	LBrack   // [
	RBrack   // ]
	Semi     // ;
	Comma    // ,
	Colon    // :
	Question // ?
	Ellipsis // ...

	Assign       // =
	AddAssign    // +=
	SubAssign    // -=
	MulAssign    // *=
	DivAssign    // /=
	RemAssign    // %=
	AndAssign    // &=
	OrAssign     // |=
	XorAssign    // ^=
	ShlAssign    // <<=
	ShrAssign    // >>=
	Inc          // ++
	Dec          // --
	Plus         // +
	Minus        // -
	Star         // *
	Slash        // /
	Percent      // %
	Amp          // &
	Pipe         // |
	Caret        // ^
	Tilde        // ~
	Not          // !
	Shl          // <<
	Shr          // >>
	Lt           // <
	Gt           // >
	Le           // <=
	Ge           // >=
	EqEq         // ==
	NotEq        // !=
	AndAnd       // &&
	OrOr         // ||
	Dot          // .
	Arrow        // ->
	numTokenKind // sentinel
)

// kindNames spells each kind; a keyword's name is its spelling, which
// the lexer gives keyword tokens as their text.
var kindNames = [numTokenKind]string{
	EOF: "EOF", Ident: "identifier", IntLit: "integer literal",
	FloatLit: "float literal", CharLit: "character literal", StrLit: "string literal",
	KwBreak: "break", KwCase: "case", KwChar: "char", KwConst: "const",
	KwContinue: "continue", KwDefault: "default", KwDo: "do", KwDouble: "double",
	KwElse: "else", KwEnum: "enum", KwExtern: "extern", KwFloat: "float",
	KwFor: "for", KwGoto: "goto", KwIf: "if", KwInt: "int", KwLong: "long",
	KwRegister: "register", KwReturn: "return", KwShort: "short",
	KwSigned: "signed", KwSizeof: "sizeof", KwStatic: "static",
	KwStruct: "struct", KwSwitch: "switch", KwTypedef: "typedef",
	KwUnion: "union", KwUnsigned: "unsigned", KwVoid: "void",
	KwVolatile: "volatile", KwWhile: "while",
	LParen: "(", RParen: ")", LBrace: "{", RBrace: "}", LBrack: "[", RBrack: "]",
	Semi: ";", Comma: ",", Colon: ":", Question: "?", Ellipsis: "...",
	Assign: "=", AddAssign: "+=", SubAssign: "-=", MulAssign: "*=",
	DivAssign: "/=", RemAssign: "%=", AndAssign: "&=", OrAssign: "|=",
	XorAssign: "^=", ShlAssign: "<<=", ShrAssign: ">>=",
	Inc: "++", Dec: "--", Plus: "+", Minus: "-", Star: "*", Slash: "/",
	Percent: "%", Amp: "&", Pipe: "|", Caret: "^", Tilde: "~", Not: "!",
	Shl: "<<", Shr: ">>", Lt: "<", Gt: ">", Le: "<=", Ge: ">=",
	EqEq: "==", NotEq: "!=", AndAnd: "&&", OrOr: "||", Dot: ".", Arrow: "->",
}

// String returns a human-readable name for the token kind.
func (k Kind) String() string {
	if k >= 0 && k < numTokenKind && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Keywords maps keyword spellings to their token kinds.
var Keywords = map[string]Kind{
	"break": KwBreak, "case": KwCase, "char": KwChar, "const": KwConst,
	"continue": KwContinue, "default": KwDefault, "do": KwDo,
	"double": KwDouble, "else": KwElse, "enum": KwEnum, "extern": KwExtern,
	"float": KwFloat, "for": KwFor, "goto": KwGoto, "if": KwIf,
	"int": KwInt, "long": KwLong, "register": KwRegister,
	"return": KwReturn, "short": KwShort, "signed": KwSigned,
	"sizeof": KwSizeof, "static": KwStatic, "struct": KwStruct,
	"switch": KwSwitch, "typedef": KwTypedef, "union": KwUnion,
	"unsigned": KwUnsigned, "void": KwVoid, "volatile": KwVolatile,
	"while": KwWhile,
}

// Pos is a source position: file name plus 1-based line and column.
// Line and column are int32 to keep tokens and AST nodes, which all
// carry a position, small.
type Pos struct {
	File string
	Line int32
	Col  int32
}

// String renders the position as file:line:col.
func (p Pos) String() string {
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// IsValid reports whether the position has been set.
func (p Pos) IsValid() bool { return p.Line > 0 }

// Token is a single lexed token. For IntLit/CharLit, IntVal holds the
// value; for FloatLit, FloatVal; for StrLit, Text holds the bytes after
// escape processing (without the terminating NUL). A token is 72 bytes
// on 64-bit platforms.
type Token struct {
	Kind     Kind
	Text     string
	Pos      Pos
	IntVal   uint64
	FloatVal float64
	Unsigned bool // integer literal had a U suffix or exceeds the signed range
	Long     bool // integer literal had an L suffix
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case Ident, IntLit, FloatLit, CharLit:
		return fmt.Sprintf("%s %q", t.Kind, t.Text)
	case StrLit:
		return fmt.Sprintf("string %q", t.Text)
	default:
		return t.Kind.String()
	}
}

// IsTypeKeyword reports whether the kind begins a type specifier.
func (k Kind) IsTypeKeyword() bool {
	switch k {
	case KwVoid, KwChar, KwShort, KwInt, KwLong, KwFloat, KwDouble,
		KwSigned, KwUnsigned, KwStruct, KwUnion, KwEnum, KwConst, KwVolatile:
		return true
	}
	return false
}
