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

type parser struct {
	toks []ctoken.Token
	i    int

	typedefs map[string]*ctypes.Type
	structs  map[string]*ctypes.StructInfo
	enums    map[string]int64 // enum constant values

	file *cast.File
}

// ParseFile lexes and parses a translation unit.
func ParseFile(name string, src []byte) (*cast.File, error) {
	toks, err := clex.Tokenize(name, src)
	if err != nil {
		return nil, err
	}
	p := &parser{
		toks:     toks,
		typedefs: make(map[string]*ctypes.Type),
		structs:  make(map[string]*ctypes.StructInfo),
		enums:    make(map[string]int64),
		file: &cast.File{
			Name:     name,
			Typedefs: make(map[string]*ctypes.Type),
		},
	}
	if err := p.parseFile(); err != nil {
		return nil, err
	}
	return p.file, nil
}

// --- token plumbing ---------------------------------------------------------

func (p *parser) tok() ctoken.Token  { return p.toks[p.i] }
func (p *parser) kind() ctoken.Kind  { return p.toks[p.i].Kind }
func (p *parser) pos() ctoken.Pos    { return p.toks[p.i].Pos }
func (p *parser) next() ctoken.Token { t := p.toks[p.i]; p.i++; return t }

func (p *parser) peek(n int) ctoken.Kind {
	if p.i+n < len(p.toks) {
		return p.toks[p.i+n].Kind
	}
	return ctoken.EOF
}

func (p *parser) at(k ctoken.Kind) bool { return p.kind() == k }

func (p *parser) accept(k ctoken.Kind) bool {
	if p.at(k) {
		p.i++
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
func (p *parser) declarator(base *ctypes.Type) (string, *ctypes.Type, []*cast.Object, error) {
	for p.accept(ctoken.Star) {
		base = ctypes.PointerTo(base)
		for p.accept(ctoken.KwConst) || p.accept(ctoken.KwVolatile) {
		}
	}
	return p.directDeclarator(base)
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
		innerSave = p.i
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
		after := p.i
		p.i = innerSave + 1 // just past '('
		var err error
		name, typ, _, err = p.declarator(typ)
		if err != nil {
			return "", nil, nil, err
		}
		if _, err := p.expect(ctoken.RParen); err != nil {
			return "", nil, nil, err
		}
		p.i = after
	}
	return name, typ, params, nil
}

// parenStartsDeclarator distinguishes `(*f)(...)` from a parameter list
// `(int x)` after an identifier-less direct declarator position.
func (p *parser) parenStartsDeclarator() bool {
	k := p.peek(1)
	if k == ctoken.Star {
		return true
	}
	if k == ctoken.Ident {
		_, isType := p.typedefs[p.toks[p.i+1].Text]
		return !isType
	}
	return false
}

func (p *parser) skipBalancedParens() error {
	depth := 1
	for depth > 0 {
		switch p.kind() {
		case ctoken.LParen:
			depth++
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
	if p.at(ctoken.KwVoid) && p.peek(1) == ctoken.RParen {
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
		return li, nil
	}
	pos := p.pos()
	x, err := p.assignExpr()
	if err != nil {
		return nil, err
	}
	return &cast.ExprInit{P: pos, X: x}, nil
}
