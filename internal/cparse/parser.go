// Package cparse is a recursive-descent parser for the C subset. It
// performs the classic typedef feedback (typedef names steer
// declaration/expression disambiguation) and evaluates integer constant
// expressions where the grammar requires them (array sizes, enum values,
// case labels).
package cparse

import (
	"fmt"

	"staticest/internal/cast"
	"staticest/internal/clex"
	"staticest/internal/ctoken"
	"staticest/internal/ctypes"
)

// Error is a parse error with position information.
type Error struct {
	Pos ctoken.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// MaxDepth bounds the height of the tree the parser builds, and with it
// the recursion of the parser and of every pass that walks the tree.
// Each nested statement, prefix operator, cast, parenthesis, initializer
// list, struct body and declarator derivation (pointer, array, function
// or parenthesized) opens a level below the current one. An infix or
// postfix operator (binary, logical, comma, assignment, ?:, and
// [] () . -> ++ --) comes after its left operand, and its node goes
// above that operand's whole subtree, so it opens the level after the
// deepest one the operand reached. A typedef's whole type is held to
// the bound as well, so typedefs built on typedefs cannot stack
// derivations past it. C99's translation limits are far below the
// bound (63 nested parenthesized expressions, 127 nested blocks), and a
// tree this high still fits the semantic pass's recursion in a few
// megabytes of stack.
const MaxDepth = 4096

// window is the token window's capacity: a refill lexes ahead until the
// window is full, and only an open rewind mark grows it.
const window = 64

type parser struct {
	// The parser pulls tokens from lx into a window: win[k] is token
	// base+k of the unit, and win[i] is the current token. The window
	// always holds the current token and the one after it. Behind i it
	// keeps tokens only from the outermost open rewind mark (token mark
	// of the unit, while marks > 0), so that a parenthesized declarator
	// can be parsed again.
	lx     clex.Lexer
	win    []ctoken.Token
	base   int
	i      int
	marks  int
	mark   int
	lexErr error // the lexer's error; the window reads EOF from there on

	// depth counts the levels of the tree open at the current token,
	// against MaxDepth. hw is the deepest level reached inside the
	// current left operand: an infix operator found after its left
	// operand puts a node above that operand's whole subtree.
	depth int
	hw    int

	typedefs map[string]*ctypes.Type
	heights  map[*ctypes.Type]int // typeHeight's results
	structs  map[string]*ctypes.StructInfo
	enums    map[string]int64 // enum constant values

	file *cast.File
}

// ParseFile lexes and parses a translation unit. A lexical error anywhere
// in src is reported in place of any parse error.
func ParseFile(name string, src []byte) (*cast.File, error) {
	p := &parser{
		win:      make([]ctoken.Token, 0, window),
		typedefs: make(map[string]*ctypes.Type),
		structs:  make(map[string]*ctypes.StructInfo),
		enums:    make(map[string]int64),
		file: &cast.File{
			Name:     name,
			Typedefs: make(map[string]*ctypes.Type),
		},
	}
	p.lx.Init(name, src)
	p.fill()
	err := p.parseFile()
	if err != nil {
		// The rest of the source may still hold a lexical error.
		for p.lex().Kind != ctoken.EOF {
		}
	}
	if p.lexErr != nil {
		return nil, p.lexErr
	}
	if err != nil {
		return nil, err
	}
	return p.file, nil
}

// --- token plumbing ---------------------------------------------------------

func (p *parser) tok() ctoken.Token { return p.win[p.i] }
func (p *parser) kind() ctoken.Kind { return p.win[p.i].Kind }
func (p *parser) pos() ctoken.Pos   { return p.win[p.i].Pos }

// peek returns the token after the current one.
func (p *parser) peek() *ctoken.Token { return &p.win[p.i+1] }

func (p *parser) next() ctoken.Token {
	t := p.win[p.i]
	p.advance()
	return t
}

func (p *parser) advance() {
	p.i++
	if p.i+1 >= len(p.win) {
		p.fill()
	}
}

// fill drops the tokens the parser can no longer return to and lexes
// ahead until the window is full and holds the token after the current
// one. While a rewind mark is open the window grows instead of dropping
// what lies past the mark.
func (p *parser) fill() {
	keep := p.i
	if p.marks > 0 {
		keep = p.mark - p.base
	}
	if keep > 0 {
		p.win = p.win[:copy(p.win, p.win[keep:])]
		p.base += keep
		p.i -= keep
	}
	for len(p.win) < cap(p.win) || len(p.win) < p.i+2 {
		p.win = append(p.win, p.lex())
	}
}

// lex returns the lexer's next token, or EOF once the lexer has failed.
func (p *parser) lex() ctoken.Token {
	if p.lexErr == nil {
		t, err := p.lx.Next()
		if err == nil {
			return t
		}
		p.lexErr = err
	}
	return ctoken.Token{Kind: ctoken.EOF}
}

// openMark returns the current token's place in the unit as a point to
// rewind to, which the window keeps until closeMark. Marks nest: an inner
// mark lies inside the outermost one's range, so only the outermost is
// kept.
func (p *parser) openMark() int {
	at := p.base + p.i
	if p.marks == 0 {
		p.mark = at
	}
	p.marks++
	return at
}

func (p *parser) closeMark() { p.marks-- }

// seek makes token at of the unit, which the window holds, the current
// one.
func (p *parser) seek(at int) { p.i = at - p.base }

func (p *parser) at(k ctoken.Kind) bool { return p.kind() == k }

func (p *parser) accept(k ctoken.Kind) bool {
	if p.at(k) {
		p.advance()
		return true
	}
	return false
}

func (p *parser) expect(k ctoken.Kind) (ctoken.Token, error) {
	if !p.at(k) {
		return ctoken.Token{}, p.errorf("expected %s, found %s", k, p.tok())
	}
	return p.next(), nil
}

func (p *parser) errorf(format string, args ...any) error {
	return &Error{Pos: p.pos(), Msg: fmt.Sprintf(format, args...)}
}

// enter opens one more level of the tree at the current token and
// raises the high-water mark with it, so a level past MaxDepth fails the
// first time any parse reaches it. Each caller restores depth on
// success; a parse error ends the parse, so error paths leave it as it
// is.
func (p *parser) enter() error {
	p.depth++
	if p.depth > p.hw {
		p.hw = p.depth
		if p.depth > MaxDepth {
			return p.tooDeep()
		}
	}
	return nil
}

func (p *parser) tooDeep() error {
	return p.errorf("nesting exceeds the %d-level limit", MaxDepth)
}

// operand starts a left operand at the current level. It returns the
// depth and high-water mark that operandDone restores once the operand
// and every infix operator after it are parsed.
func (p *parser) operand() (depth, hw int) {
	depth, hw = p.depth, p.hw
	p.hw = depth
	return depth, hw
}

// infix opens the level of a node that takes the operand parsed so far as
// its left child, below which that operand's subtree now hangs.
func (p *parser) infix() error {
	p.depth = p.hw
	return p.enter()
}

func (p *parser) operandDone(depth, hw int) {
	p.depth = depth
	if hw > p.hw {
		p.hw = hw
	}
}

// typeHeight counts the derivations (pointer, array, function) on the
// longest path down t, as passes that compare or print types recurse on
// them; they stop at a struct. Typedefs share their types, so each
// type's height is worked out once.
func (p *parser) typeHeight(t *ctypes.Type) int {
	if t.Kind != ctypes.Ptr && t.Kind != ctypes.Array && t.Kind != ctypes.Func {
		return 0
	}
	if h, ok := p.heights[t]; ok {
		return h
	}
	var h int
	if t.Kind == ctypes.Func {
		h = p.typeHeight(t.Sig.Ret)
		for _, pt := range t.Sig.Params {
			h = max(h, p.typeHeight(pt))
		}
	} else {
		h = p.typeHeight(t.Elem)
	}
	if p.heights == nil {
		p.heights = make(map[*ctypes.Type]int)
	}
	p.heights[t] = h + 1
	return h + 1
}

// isTypeStart reports whether the current token begins a type specifier
// (keyword or typedef name).
func (p *parser) isTypeStart() bool {
	k := p.kind()
	if k.IsTypeKeyword() || k == ctoken.KwTypedef || k == ctoken.KwStatic ||
		k == ctoken.KwExtern || k == ctoken.KwRegister {
		return true
	}
	if k == ctoken.Ident {
		_, ok := p.typedefs[p.tok().Text]
		return ok
	}
	return false
}

// --- top level --------------------------------------------------------------

func (p *parser) parseFile() error {
	for !p.at(ctoken.EOF) {
		if p.accept(ctoken.Semi) {
			continue
		}
		if err := p.externalDecl(); err != nil {
			return err
		}
	}
	return nil
}

type storageClass int

const (
	scNone storageClass = iota
	scTypedef
	scStatic
	scExtern
)

func (p *parser) externalDecl() error {
	sc, base, err := p.declSpecs()
	if err != nil {
		return err
	}
	// `struct S { ... };` or `enum E { ... };` alone.
	if p.accept(ctoken.Semi) {
		return nil
	}
	first := true
	for {
		dpos := p.pos()
		name, typ, params, err := p.declarator(base)
		if err != nil {
			return err
		}
		if name == "" {
			return &Error{Pos: dpos, Msg: "declaration requires a name"}
		}
		if sc == scTypedef {
			if p.typeHeight(typ) > MaxDepth {
				return p.tooDeep()
			}
			p.typedefs[name] = typ
			p.file.Typedefs[name] = typ
		} else if typ.Kind == ctypes.Func {
			obj := &cast.Object{
				Name: name, Kind: cast.ObjFunc, Type: typ,
				Decl: dpos, Global: true, FuncIndex: -1,
			}
			if first && p.at(ctoken.LBrace) {
				return p.funcDefinition(obj, params)
			}
			p.file.Externs = append(p.file.Externs, obj)
		} else {
			obj := &cast.Object{
				Name: name, Kind: cast.ObjVar, Type: typ,
				Decl: dpos, Global: true,
			}
			vd := &cast.VarDecl{P: dpos, Obj: obj}
			if p.accept(ctoken.Assign) {
				init, err := p.initializer()
				if err != nil {
					return err
				}
				vd.Init = init
			}
			if sc != scExtern || vd.Init != nil {
				p.file.Globals = append(p.file.Globals, vd)
			}
		}
		first = false
		if p.accept(ctoken.Comma) {
			continue
		}
		_, err = p.expect(ctoken.Semi)
		return err
	}
}

func (p *parser) funcDefinition(obj *cast.Object, params []*cast.Object) error {
	body, err := p.block()
	if err != nil {
		return err
	}
	fd := &cast.FuncDecl{P: obj.Decl, Obj: obj, Params: params, Body: body}
	p.file.Funcs = append(p.file.Funcs, fd)
	return nil
}

// --- declaration specifiers --------------------------------------------------

func (p *parser) declSpecs() (storageClass, *ctypes.Type, error) {
	sc := scNone
	var (
		sawVoid, sawChar, sawInt, sawFloat, sawDouble bool
		nShort, nLong                                 int
		sawSigned, sawUnsigned                        bool
		sawConst                                      bool
		named                                         *ctypes.Type
	)
	start := p.pos()
	for {
		switch p.kind() {
		case ctoken.KwTypedef:
			sc = scTypedef
			p.next()
		case ctoken.KwStatic:
			sc = scStatic
			p.next()
		case ctoken.KwExtern:
			sc = scExtern
			p.next()
		case ctoken.KwRegister, ctoken.KwVolatile:
			p.next()
		case ctoken.KwConst:
			sawConst = true
			p.next()
		case ctoken.KwVoid:
			sawVoid = true
			p.next()
		case ctoken.KwChar:
			sawChar = true
			p.next()
		case ctoken.KwShort:
			nShort++
			p.next()
		case ctoken.KwInt:
			sawInt = true
			p.next()
		case ctoken.KwLong:
			nLong++
			p.next()
		case ctoken.KwFloat:
			sawFloat = true
			p.next()
		case ctoken.KwDouble:
			sawDouble = true
			p.next()
		case ctoken.KwSigned:
			sawSigned = true
			p.next()
		case ctoken.KwUnsigned:
			sawUnsigned = true
			p.next()
		case ctoken.KwStruct, ctoken.KwUnion:
			if p.kind() == ctoken.KwUnion {
				return sc, nil, p.errorf("unions are not supported by the subset")
			}
			t, err := p.structSpecifier()
			if err != nil {
				return sc, nil, err
			}
			named = t
		case ctoken.KwEnum:
			t, err := p.enumSpecifier()
			if err != nil {
				return sc, nil, err
			}
			named = t
		case ctoken.Ident:
			if t, ok := p.typedefs[p.tok().Text]; ok && named == nil &&
				!sawVoid && !sawChar && !sawInt && !sawFloat && !sawDouble &&
				nShort == 0 && nLong == 0 && !sawSigned && !sawUnsigned {
				named = t
				p.next()
				continue
			}
			goto done
		default:
			goto done
		}
	}
done:
	var t *ctypes.Type
	switch {
	case named != nil:
		t = named
	case sawVoid:
		t = ctypes.VoidType
	case sawChar:
		if sawUnsigned {
			t = ctypes.UCharType
		} else {
			t = ctypes.CharType
		}
	case sawFloat:
		t = ctypes.FloatType
	case sawDouble:
		t = ctypes.DoubleType
	case nShort > 0:
		if sawUnsigned {
			t = ctypes.UShortType
		} else {
			t = ctypes.ShortType
		}
	case nLong > 0:
		if sawUnsigned {
			t = ctypes.ULongType
		} else {
			t = ctypes.LongType
		}
	case sawInt, sawSigned:
		if sawUnsigned {
			t = ctypes.UIntType
		} else {
			t = ctypes.IntType
		}
	case sawUnsigned:
		t = ctypes.UIntType
	default:
		return sc, nil, &Error{Pos: start, Msg: "expected type specifier, found " + p.tok().String()}
	}
	if sawConst && t != nil {
		c := *t
		c.Const = true
		t = &c
	}
	return sc, t, nil
}

func (p *parser) structSpecifier() (*ctypes.Type, error) {
	p.next() // struct
	tag := ""
	if p.at(ctoken.Ident) {
		tag = p.next().Text
	}
	var info *ctypes.StructInfo
	if tag != "" {
		if existing, ok := p.structs[tag]; ok {
			info = existing
		} else {
			info = &ctypes.StructInfo{Tag: tag}
			p.structs[tag] = info
			p.file.Structs = append(p.file.Structs, info)
		}
	} else {
		info = &ctypes.StructInfo{}
		p.file.Structs = append(p.file.Structs, info)
	}
	t := &ctypes.Type{Kind: ctypes.Struct, Info: info}
	if !p.at(ctoken.LBrace) {
		return t, nil
	}
	if info.Complete {
		return nil, p.errorf("redefinition of struct %s", tag)
	}
	if err := p.enter(); err != nil {
		return nil, err
	}
	p.next() // {
	for !p.at(ctoken.RBrace) {
		_, base, err := p.declSpecs()
		if err != nil {
			return nil, err
		}
		for {
			fpos := p.pos()
			name, ft, _, err := p.declarator(base)
			if err != nil {
				return nil, err
			}
			if name == "" {
				return nil, &Error{Pos: fpos, Msg: "struct field requires a name"}
			}
			if p.at(ctoken.Colon) {
				return nil, p.errorf("bitfields are not supported by the subset")
			}
			info.Fields = append(info.Fields, ctypes.Field{Name: name, Type: ft})
			if !p.accept(ctoken.Comma) {
				break
			}
		}
		if _, err := p.expect(ctoken.Semi); err != nil {
			return nil, err
		}
	}
	p.next() // }
	p.depth--
	if err := info.Layout(); err != nil {
		return nil, p.errorf("%v", err)
	}
	return t, nil
}

func (p *parser) enumSpecifier() (*ctypes.Type, error) {
	p.next() // enum
	if p.at(ctoken.Ident) {
		p.next() // tag (enums are all int in the subset; tag is cosmetic)
	}
	if p.accept(ctoken.LBrace) {
		var val int64
		for !p.at(ctoken.RBrace) {
			nameTok, err := p.expect(ctoken.Ident)
			if err != nil {
				return nil, err
			}
			if p.accept(ctoken.Assign) {
				v, err := p.constExpr()
				if err != nil {
					return nil, err
				}
				val = v
			}
			p.enums[nameTok.Text] = val
			val++
			if !p.accept(ctoken.Comma) {
				break
			}
		}
		if _, err := p.expect(ctoken.RBrace); err != nil {
			return nil, err
		}
	}
	t := *ctypes.IntType
	t.IsEnum = true
	return &t, nil
}

// --- declarators -------------------------------------------------------------

// declarator parses a (possibly abstract) declarator against a base type
// and returns the declared name ("" for abstract declarators), the full
// type, and — when the outermost derivation is a function — the named
// parameter objects.
//
// Each pointer, array and function derivation opens a level, and the
// inner declarator of a parenthesized one sits a level below all of
// them, because its derivations apply on top of theirs.
func (p *parser) declarator(base *ctypes.Type) (string, *ctypes.Type, []*cast.Object, error) {
	depth := p.depth
	for p.accept(ctoken.Star) {
		if err := p.enter(); err != nil {
			return "", nil, nil, err
		}
		base = ctypes.PointerTo(base)
		for p.accept(ctoken.KwConst) || p.accept(ctoken.KwVolatile) {
		}
	}
	name, typ, params, err := p.directDeclarator(base)
	p.depth = depth
	return name, typ, params, err
}

func (p *parser) directDeclarator(base *ctypes.Type) (string, *ctypes.Type, []*cast.Object, error) {
	var (
		name      string
		innerSave int = -1
	)
	switch {
	case p.at(ctoken.Ident):
		name = p.next().Text
	case p.at(ctoken.LParen) && p.parenStartsDeclarator():
		// Parenthesized declarator: remember its token range, parse the
		// suffixes first, then re-parse the inner declarator against the
		// fully derived type.
		innerSave = p.openMark()
		p.next() // (
		if err := p.skipBalancedParens(); err != nil {
			return "", nil, nil, err
		}
	}

	typ := base
	var params []*cast.Object
	var suffixes []func(*ctypes.Type) (*ctypes.Type, error)
	firstFunc := true
	for {
		switch {
		case p.at(ctoken.LBrack):
			if err := p.enter(); err != nil {
				return "", nil, nil, err
			}
			lpos := p.next().Pos
			n := int64(-1) // incomplete []
			if !p.at(ctoken.RBrack) {
				v, err := p.constExpr()
				if err != nil {
					return "", nil, nil, err
				}
				if v <= 0 {
					return "", nil, nil, p.errorf("array size must be positive, got %d", v)
				}
				n = v
			}
			if _, err := p.expect(ctoken.RBrack); err != nil {
				return "", nil, nil, err
			}
			sz := n
			suffixes = append(suffixes, func(t *ctypes.Type) (*ctypes.Type, error) {
				// The element size is final here (a struct's layout never
				// changes once complete), so bounding the count against
				// it keeps every array type's Size within MaxObjectSize.
				esz := t.Size()
				if esz <= 0 {
					return nil, &Error{Pos: lpos, Msg: fmt.Sprintf("array of incomplete type %s", t)}
				}
				if sz < 0 {
					return ctypes.ArrayOf(t, 0), nil
				}
				if sz > ctypes.MaxObjectSize/esz {
					return nil, &Error{Pos: lpos, Msg: fmt.Sprintf(
						"array of %d %s exceeds the %d-byte object limit", sz, t, int64(ctypes.MaxObjectSize))}
				}
				return ctypes.ArrayOf(t, sz), nil
			})
		case p.at(ctoken.LParen):
			if err := p.enter(); err != nil {
				return "", nil, nil, err
			}
			p.next()
			sig, ps, err := p.paramList()
			if err != nil {
				return "", nil, nil, err
			}
			if firstFunc && innerSave < 0 {
				params = ps
			}
			firstFunc = false
			s := sig
			suffixes = append(suffixes, func(t *ctypes.Type) (*ctypes.Type, error) {
				s2 := *s
				s2.Ret = t
				return ctypes.FuncOf(&s2), nil
			})
		default:
			goto applied
		}
	}
applied:
	// Apply suffixes inside-out (rightmost suffix closest to the base).
	for i := len(suffixes) - 1; i >= 0; i-- {
		var err error
		typ, err = suffixes[i](typ)
		if err != nil {
			return "", nil, nil, err
		}
	}
	if innerSave >= 0 {
		// Re-parse the inner declarator with the derived type as base.
		if err := p.enter(); err != nil {
			return "", nil, nil, err
		}
		after := p.base + p.i
		p.seek(innerSave + 1) // just past '('
		var err error
		name, typ, _, err = p.declarator(typ)
		if err != nil {
			return "", nil, nil, err
		}
		if _, err := p.expect(ctoken.RParen); err != nil {
			return "", nil, nil, err
		}
		p.seek(after)
		p.closeMark()
	}
	return name, typ, params, nil
}

// parenStartsDeclarator distinguishes `(*f)(...)` from a parameter list
// `(int x)` after an identifier-less direct declarator position.
func (p *parser) parenStartsDeclarator() bool {
	t := p.peek()
	if t.Kind == ctoken.Star {
		return true
	}
	if t.Kind == ctoken.Ident {
		_, isType := p.typedefs[t.Text]
		return !isType
	}
	return false
}

// skipBalancedParens skips to just past the ')' that closes an open '('.
// Every '(' nested inside opens at least one level when the tokens are
// parsed again, so nesting past MaxDepth fails here, before each level
// of a deep declarator would skip the rest of it once more.
func (p *parser) skipBalancedParens() error {
	depth := 1
	for depth > 0 {
		switch p.kind() {
		case ctoken.LParen:
			depth++
			if p.depth+depth > MaxDepth {
				return p.tooDeep()
			}
		case ctoken.RParen:
			depth--
		case ctoken.EOF:
			return p.errorf("unbalanced parentheses in declarator")
		}
		p.next()
	}
	return nil
}

func (p *parser) paramList() (*ctypes.Signature, []*cast.Object, error) {
	sig := &ctypes.Signature{Ret: nil}
	if p.accept(ctoken.RParen) {
		sig.Unknown = true
		return sig, nil, nil
	}
	if p.at(ctoken.KwVoid) && p.peek().Kind == ctoken.RParen {
		p.next()
		p.next()
		return sig, nil, nil
	}
	var params []*cast.Object
	for {
		if p.accept(ctoken.Ellipsis) {
			sig.Variadic = true
			break
		}
		ppos := p.pos()
		_, base, err := p.declSpecs()
		if err != nil {
			return nil, nil, err
		}
		name, typ, _, err := p.declarator(base)
		if err != nil {
			return nil, nil, err
		}
		// Parameter type adjustments: arrays decay to pointers, function
		// types to function pointers.
		switch typ.Kind {
		case ctypes.Array:
			typ = ctypes.PointerTo(typ.Elem)
		case ctypes.Func:
			typ = ctypes.PointerTo(typ)
		}
		sig.Params = append(sig.Params, typ)
		params = append(params, &cast.Object{
			Name: name, Kind: cast.ObjParam, Type: typ, Decl: ppos,
		})
		if !p.accept(ctoken.Comma) {
			break
		}
	}
	if _, err := p.expect(ctoken.RParen); err != nil {
		return nil, nil, err
	}
	return sig, params, nil
}

// typeName parses a type-name (declSpecs + abstract declarator), used by
// casts and sizeof.
func (p *parser) typeName() (*ctypes.Type, error) {
	_, base, err := p.declSpecs()
	if err != nil {
		return nil, err
	}
	name, typ, _, err := p.declarator(base)
	if err != nil {
		return nil, err
	}
	if name != "" {
		return nil, p.errorf("unexpected name %q in type name", name)
	}
	return typ, nil
}

// --- initializers ------------------------------------------------------------

func (p *parser) initializer() (cast.Init, error) {
	if p.at(ctoken.LBrace) {
		if err := p.enter(); err != nil {
			return nil, err
		}
		pos := p.pos()
		p.next()
		li := &cast.ListInit{P: pos}
		for !p.at(ctoken.RBrace) {
			el, err := p.initializer()
			if err != nil {
				return nil, err
			}
			li.Elems = append(li.Elems, el)
			if !p.accept(ctoken.Comma) {
				break
			}
		}
		if _, err := p.expect(ctoken.RBrace); err != nil {
			return nil, err
		}
		p.depth--
		return li, nil
	}
	pos := p.pos()
	x, err := p.assignExpr()
	if err != nil {
		return nil, err
	}
	return &cast.ExprInit{P: pos, X: x}, nil
}
