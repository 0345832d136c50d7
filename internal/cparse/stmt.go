package cparse

import (
	"staticest/internal/cast"
	"staticest/internal/ctoken"
	"staticest/internal/ctypes"
)

func (p *parser) block() (*cast.Block, error) {
	pos := p.pos()
	if _, err := p.expect(ctoken.LBrace); err != nil {
		return nil, err
	}
	b := &cast.Block{}
	b.P = pos
	for !p.at(ctoken.RBrace) {
		if p.at(ctoken.EOF) {
			return nil, p.errorf("unexpected end of file in block")
		}
		s, err := p.statement()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next() // }
	return b, nil
}

// statement parses one statement a level below the enclosing one.
func (p *parser) statement() (cast.Stmt, error) {
	if err := p.enter(); err != nil {
		return nil, err
	}
	s, err := p.stmt()
	p.depth--
	return s, err
}

func (p *parser) stmt() (cast.Stmt, error) {
	pos := p.pos()
	switch p.kind() {
	case ctoken.LBrace:
		return p.block()
	case ctoken.Semi:
		p.next()
		s := &cast.Empty{}
		s.P = pos
		return s, nil
	case ctoken.KwIf:
		return p.ifStmt()
	case ctoken.KwWhile:
		return p.whileStmt()
	case ctoken.KwDo:
		return p.doWhileStmt()
	case ctoken.KwFor:
		return p.forStmt()
	case ctoken.KwSwitch:
		return p.switchStmt()
	case ctoken.KwBreak:
		p.next()
		if _, err := p.expect(ctoken.Semi); err != nil {
			return nil, err
		}
		s := &cast.Break{}
		s.P = pos
		return s, nil
	case ctoken.KwContinue:
		p.next()
		if _, err := p.expect(ctoken.Semi); err != nil {
			return nil, err
		}
		s := &cast.Continue{}
		s.P = pos
		return s, nil
	case ctoken.KwReturn:
		p.next()
		s := &cast.Return{}
		s.P = pos
		if !p.at(ctoken.Semi) {
			x, err := p.expr()
			if err != nil {
				return nil, err
			}
			s.X = x
		}
		if _, err := p.expect(ctoken.Semi); err != nil {
			return nil, err
		}
		return s, nil
	case ctoken.KwGoto:
		p.next()
		lbl, err := p.expect(ctoken.Ident)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(ctoken.Semi); err != nil {
			return nil, err
		}
		s := &cast.Goto{Label: lbl.Text}
		s.P = pos
		return s, nil
	case ctoken.Ident:
		// Labeled statement?
		if p.peek().Kind == ctoken.Colon {
			lbl := p.next().Text
			p.next() // :
			inner, err := p.statement()
			if err != nil {
				return nil, err
			}
			s := &cast.Labeled{Label: lbl, Stmt: inner}
			s.P = pos
			return s, nil
		}
	}
	if p.isTypeStart() {
		return p.declStmt()
	}
	x, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(ctoken.Semi); err != nil {
		return nil, err
	}
	s := &cast.ExprStmt{X: x}
	s.P = pos
	return s, nil
}

func (p *parser) declStmt() (cast.Stmt, error) {
	pos := p.pos()
	sc, base, err := p.declSpecs()
	if err != nil {
		return nil, err
	}
	if sc == scTypedef {
		return nil, p.errorf("typedef inside a function is not supported")
	}
	ds := &cast.DeclStmt{}
	ds.P = pos
	for {
		dpos := p.pos()
		name, typ, _, err := p.declarator(base)
		if err != nil {
			return nil, err
		}
		if name == "" {
			return nil, &Error{Pos: dpos, Msg: "declaration requires a name"}
		}
		obj := &cast.Object{Name: name, Kind: cast.ObjVar, Type: typ, Decl: dpos}
		vd := &cast.VarDecl{P: dpos, Obj: obj}
		if p.accept(ctoken.Assign) {
			init, err := p.initializer()
			if err != nil {
				return nil, err
			}
			vd.Init = init
		}
		ds.Decls = append(ds.Decls, vd)
		if p.accept(ctoken.Comma) {
			continue
		}
		if _, err := p.expect(ctoken.Semi); err != nil {
			return nil, err
		}
		return ds, nil
	}
}

func (p *parser) parenExpr() (cast.Expr, error) {
	if _, err := p.expect(ctoken.LParen); err != nil {
		return nil, err
	}
	x, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(ctoken.RParen); err != nil {
		return nil, err
	}
	return x, nil
}

func (p *parser) ifStmt() (cast.Stmt, error) {
	pos := p.pos()
	p.next() // if
	cond, err := p.parenExpr()
	if err != nil {
		return nil, err
	}
	then, err := p.statement()
	if err != nil {
		return nil, err
	}
	s := &cast.If{Cond: cond, Then: then}
	s.P = pos
	s.SetBranchID(-1)
	if p.accept(ctoken.KwElse) {
		els, err := p.statement()
		if err != nil {
			return nil, err
		}
		s.Else = els
	}
	return s, nil
}

func (p *parser) whileStmt() (cast.Stmt, error) {
	pos := p.pos()
	p.next() // while
	cond, err := p.parenExpr()
	if err != nil {
		return nil, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	s := &cast.While{Cond: cond, Body: body}
	s.P = pos
	s.SetBranchID(-1)
	return s, nil
}

func (p *parser) doWhileStmt() (cast.Stmt, error) {
	pos := p.pos()
	p.next() // do
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(ctoken.KwWhile); err != nil {
		return nil, err
	}
	cond, err := p.parenExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(ctoken.Semi); err != nil {
		return nil, err
	}
	s := &cast.DoWhile{Body: body, Cond: cond}
	s.P = pos
	s.SetBranchID(-1)
	return s, nil
}

func (p *parser) forStmt() (cast.Stmt, error) {
	pos := p.pos()
	p.next() // for
	if _, err := p.expect(ctoken.LParen); err != nil {
		return nil, err
	}
	s := &cast.For{}
	s.P = pos
	s.SetBranchID(-1)
	if !p.at(ctoken.Semi) {
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Init = x
	}
	if _, err := p.expect(ctoken.Semi); err != nil {
		return nil, err
	}
	if !p.at(ctoken.Semi) {
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Cond = x
	}
	if _, err := p.expect(ctoken.Semi); err != nil {
		return nil, err
	}
	if !p.at(ctoken.RParen) {
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		s.Post = x
	}
	if _, err := p.expect(ctoken.RParen); err != nil {
		return nil, err
	}
	body, err := p.statement()
	if err != nil {
		return nil, err
	}
	s.Body = body
	if s.Init != nil {
		s.InitS = &cast.ExprStmt{X: s.Init}
		s.InitS.P = s.Init.Pos()
	}
	if s.Post != nil {
		s.PostS = &cast.ExprStmt{X: s.Post}
		s.PostS.P = s.Post.Pos()
	}
	return s, nil
}

// switchStmt parses a structured switch: the body must be a brace block
// whose top-level contents are case/default-labelled statement runs
// (standard usage; Duff's device is outside the subset).
func (p *parser) switchStmt() (cast.Stmt, error) {
	pos := p.pos()
	p.next() // switch
	tag, err := p.parenExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(ctoken.LBrace); err != nil {
		return nil, err
	}
	s := &cast.Switch{Tag: tag, Branch: -1}
	s.P = pos
	var cur *cast.SwitchCase
	for !p.at(ctoken.RBrace) {
		switch p.kind() {
		case ctoken.KwCase:
			cpos := p.pos()
			p.next()
			v, err := p.constExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(ctoken.Colon); err != nil {
				return nil, err
			}
			if cur == nil || len(cur.Stmts) > 0 {
				cur = &cast.SwitchCase{Pos: cpos}
				s.Cases = append(s.Cases, cur)
			}
			cur.Vals = append(cur.Vals, v)
		case ctoken.KwDefault:
			cpos := p.pos()
			p.next()
			if _, err := p.expect(ctoken.Colon); err != nil {
				return nil, err
			}
			if cur == nil || len(cur.Stmts) > 0 {
				cur = &cast.SwitchCase{Pos: cpos}
				s.Cases = append(s.Cases, cur)
			}
			cur.IsDefault = true
		case ctoken.EOF:
			return nil, p.errorf("unexpected end of file in switch")
		default:
			if cur == nil {
				return nil, p.errorf("statement before first case label in switch")
			}
			st, err := p.statement()
			if err != nil {
				return nil, err
			}
			cur.Stmts = append(cur.Stmts, st)
		}
	}
	p.next() // }
	return s, nil
}

// --- constant expressions ----------------------------------------------------

// constExpr parses a conditional expression and folds it to an integer
// constant; enum constants and sizeof are in scope.
func (p *parser) constExpr() (int64, error) {
	pos := p.pos()
	x, err := p.condExpr()
	if err != nil {
		return 0, err
	}
	v, ok := p.foldInt(x)
	if !ok {
		return 0, &Error{Pos: pos, Msg: "expression is not an integer constant"}
	}
	return v, nil
}

func (p *parser) foldInt(e cast.Expr) (int64, bool) {
	switch x := e.(type) {
	case *cast.IntLit:
		return int64(x.Val), true
	case *cast.Ident:
		v, ok := p.enums[x.Name]
		return v, ok
	case *cast.Unary:
		v, ok := p.foldInt(x.X)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case cast.Neg:
			return -v, true
		case cast.BitNot:
			return ^v, true
		case cast.LogNot:
			return b2i(v == 0), true
		}
		return 0, false
	case *cast.Binary:
		a, ok := p.foldInt(x.X)
		if !ok {
			return 0, false
		}
		b, ok := p.foldInt(x.Y)
		if !ok {
			return 0, false
		}
		switch x.Op {
		case cast.Add:
			return a + b, true
		case cast.Sub:
			return a - b, true
		case cast.Mul:
			return a * b, true
		case cast.Div:
			if b == 0 {
				return 0, false
			}
			return a / b, true
		case cast.Rem:
			if b == 0 {
				return 0, false
			}
			return a % b, true
		case cast.And:
			return a & b, true
		case cast.Or:
			return a | b, true
		case cast.Xor:
			return a ^ b, true
		case cast.Shl:
			if b < 0 || b > 63 {
				return 0, false
			}
			return a << uint(b), true
		case cast.Shr:
			if b < 0 || b > 63 {
				return 0, false
			}
			return a >> uint(b), true
		case cast.Lt:
			return b2i(a < b), true
		case cast.Gt:
			return b2i(a > b), true
		case cast.Le:
			return b2i(a <= b), true
		case cast.Ge:
			return b2i(a >= b), true
		case cast.Eq:
			return b2i(a == b), true
		case cast.Ne:
			return b2i(a != b), true
		}
		return 0, false
	case *cast.Logical:
		a, ok := p.foldInt(x.X)
		if !ok {
			return 0, false
		}
		b, ok := p.foldInt(x.Y)
		if !ok {
			return 0, false
		}
		if x.AndAnd {
			return b2i(a != 0 && b != 0), true
		}
		return b2i(a != 0 || b != 0), true
	case *cast.Cond:
		c, ok := p.foldInt(x.C)
		if !ok {
			return 0, false
		}
		if c != 0 {
			return p.foldInt(x.Then)
		}
		return p.foldInt(x.Else)
	case *cast.SizeofType:
		return x.Of.Size(), true
	case *cast.SizeofExpr:
		// Only literal operands are foldable pre-sem.
		if t := exprLitType(x.X); t != nil {
			return t.Size(), true
		}
		return 0, false
	case *cast.CastExpr:
		if x.To.IsInteger() {
			return p.foldInt(x.X)
		}
		return 0, false
	}
	return 0, false
}

func exprLitType(e cast.Expr) *ctypes.Type {
	switch x := e.(type) {
	case *cast.IntLit:
		if x.IsChar {
			return ctypes.CharType
		}
		return ctypes.IntType
	case *cast.FloatLit:
		return ctypes.DoubleType
	case *cast.StrLit:
		return ctypes.ArrayOf(ctypes.CharType, int64(len(x.Val))+1)
	}
	return nil
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
