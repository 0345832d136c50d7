package cparse

import (
	"staticest/internal/cast"
	"staticest/internal/ctoken"
)

// expr parses a full expression including the comma operator.
func (p *parser) expr() (cast.Expr, error) {
	depth, hw := p.operand()
	x, err := p.assignExpr()
	if err != nil {
		return nil, err
	}
	for p.at(ctoken.Comma) {
		if err := p.infix(); err != nil {
			return nil, err
		}
		pos := p.pos()
		p.next()
		y, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		c := &cast.Comma{X: x, Y: y}
		c.P = pos
		x = c
	}
	p.operandDone(depth, hw)
	return x, nil
}

var assignOps = map[ctoken.Kind]cast.AssignOp{
	ctoken.Assign:    cast.Plain,
	ctoken.AddAssign: cast.AddEq,
	ctoken.SubAssign: cast.SubEq,
	ctoken.MulAssign: cast.MulEq,
	ctoken.DivAssign: cast.DivEq,
	ctoken.RemAssign: cast.RemEq,
	ctoken.AndAssign: cast.AndEq,
	ctoken.OrAssign:  cast.OrEq,
	ctoken.XorAssign: cast.XorEq,
	ctoken.ShlAssign: cast.ShlEq,
	ctoken.ShrAssign: cast.ShrEq,
}

func (p *parser) assignExpr() (cast.Expr, error) {
	depth, hw := p.operand()
	x, err := p.condExpr()
	if err != nil {
		return nil, err
	}
	if op, ok := assignOps[p.kind()]; ok {
		if err := p.infix(); err != nil {
			return nil, err
		}
		pos := p.pos()
		p.next()
		r, err := p.assignExpr()
		if err != nil {
			return nil, err
		}
		a := &cast.Assign{Op: op, L: x, R: r}
		a.P = pos
		x = a
	}
	p.operandDone(depth, hw)
	return x, nil
}

func (p *parser) condExpr() (cast.Expr, error) {
	depth, hw := p.operand()
	c, err := p.binaryExpr(1)
	if err != nil {
		return nil, err
	}
	if !p.at(ctoken.Question) {
		p.operandDone(depth, hw)
		return c, nil
	}
	if err := p.infix(); err != nil {
		return nil, err
	}
	pos := p.pos()
	p.next()
	then, err := p.expr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(ctoken.Colon); err != nil {
		return nil, err
	}
	els, err := p.condExpr()
	if err != nil {
		return nil, err
	}
	x := &cast.Cond{C: c, Then: then, Else: els}
	x.P = pos
	p.operandDone(depth, hw)
	return x, nil
}

// binOp is a binary operator: its precedence, from 1 for || up to 10 for
// * / %, and the operation a cast.Binary node of it performs. && and ||
// build cast.Logical nodes instead.
type binOp struct {
	prec int
	op   cast.BinaryOp
}

// binOps is indexed by token kind; a zero prec marks a token that is not
// a binary operator.
var binOps = [...]binOp{
	ctoken.OrOr:    {prec: 1},
	ctoken.AndAnd:  {prec: 2},
	ctoken.Pipe:    {3, cast.Or},
	ctoken.Caret:   {4, cast.Xor},
	ctoken.Amp:     {5, cast.And},
	ctoken.EqEq:    {6, cast.Eq},
	ctoken.NotEq:   {6, cast.Ne},
	ctoken.Lt:      {7, cast.Lt},
	ctoken.Gt:      {7, cast.Gt},
	ctoken.Le:      {7, cast.Le},
	ctoken.Ge:      {7, cast.Ge},
	ctoken.Shl:     {8, cast.Shl},
	ctoken.Shr:     {8, cast.Shr},
	ctoken.Plus:    {9, cast.Add},
	ctoken.Minus:   {9, cast.Sub},
	ctoken.Star:    {10, cast.Mul},
	ctoken.Slash:   {10, cast.Div},
	ctoken.Percent: {10, cast.Rem},
}

func binOpOf(k ctoken.Kind) binOp {
	if int(k) < len(binOps) {
		return binOps[k]
	}
	return binOp{}
}

// binaryExpr parses a binary expression whose operators all have
// precedence minPrec (at least 1) or higher, by precedence climbing: after
// each operand it looks up the next token's precedence once, and parses
// the right operand of an operator with precedence p as a
// binaryExpr(p+1), which makes every level left-associative.
func (p *parser) binaryExpr(minPrec int) (cast.Expr, error) {
	depth, hw := p.operand()
	x, err := p.castExpr()
	if err != nil {
		return nil, err
	}
	for {
		k := p.kind()
		bo := binOpOf(k)
		if bo.prec < minPrec {
			p.operandDone(depth, hw)
			return x, nil
		}
		if err := p.infix(); err != nil {
			return nil, err
		}
		pos := p.pos()
		p.next()
		y, err := p.binaryExpr(bo.prec + 1)
		if err != nil {
			return nil, err
		}
		if k == ctoken.OrOr || k == ctoken.AndAnd {
			l := &cast.Logical{AndAnd: k == ctoken.AndAnd, X: x, Y: y}
			l.P = pos
			x = l
		} else {
			b := &cast.Binary{Op: bo.op, X: x, Y: y}
			b.P = pos
			x = b
		}
	}
}

// castExpr parses `(type-name) cast-expr` or falls through to unary.
func (p *parser) castExpr() (cast.Expr, error) {
	if p.at(ctoken.LParen) && p.nextStartsType() {
		if err := p.enter(); err != nil {
			return nil, err
		}
		pos := p.pos()
		p.next()
		t, err := p.typeName()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(ctoken.RParen); err != nil {
			return nil, err
		}
		x, err := p.castExpr()
		if err != nil {
			return nil, err
		}
		c := &cast.CastExpr{To: t, X: x}
		c.P = pos
		p.depth--
		return c, nil
	}
	return p.unaryExpr()
}

// nextStartsType reports whether the token after the current one begins
// a type name.
func (p *parser) nextStartsType() bool {
	t := p.peek()
	if t.Kind.IsTypeKeyword() {
		return true
	}
	if t.Kind == ctoken.Ident {
		_, ok := p.typedefs[t.Text]
		return ok
	}
	return false
}

var prefixOps = map[ctoken.Kind]cast.UnaryOp{
	ctoken.Minus: cast.Neg,
	ctoken.Tilde: cast.BitNot,
	ctoken.Not:   cast.LogNot,
	ctoken.Star:  cast.Deref,
	ctoken.Amp:   cast.Addr,
	ctoken.Inc:   cast.PreInc,
	ctoken.Dec:   cast.PreDec,
}

// unaryExpr parses a prefix operator's operand a level below it; unary
// plus builds no node but nests the parse all the same.
func (p *parser) unaryExpr() (cast.Expr, error) {
	pos := p.pos()
	switch p.kind() {
	case ctoken.Plus: // unary plus is a no-op
		if err := p.enter(); err != nil {
			return nil, err
		}
		p.next()
		x, err := p.castExpr()
		p.depth--
		return x, err
	case ctoken.KwSizeof:
		if err := p.enter(); err != nil {
			return nil, err
		}
		p.next()
		if p.at(ctoken.LParen) && p.nextStartsType() {
			p.next()
			t, err := p.typeName()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(ctoken.RParen); err != nil {
				return nil, err
			}
			x := &cast.SizeofType{Of: t}
			x.P = pos
			p.depth--
			return x, nil
		}
		inner, err := p.unaryExpr()
		if err != nil {
			return nil, err
		}
		x := &cast.SizeofExpr{X: inner}
		x.P = pos
		p.depth--
		return x, nil
	}
	if op, ok := prefixOps[p.kind()]; ok {
		if err := p.enter(); err != nil {
			return nil, err
		}
		p.next()
		var inner cast.Expr
		var err error
		if op == cast.PreInc || op == cast.PreDec {
			inner, err = p.unaryExpr()
		} else {
			inner, err = p.castExpr()
		}
		if err != nil {
			return nil, err
		}
		x := &cast.Unary{Op: op, X: inner}
		x.P = pos
		p.depth--
		return x, nil
	}
	return p.postfixExpr()
}

func (p *parser) postfixExpr() (cast.Expr, error) {
	depth, hw := p.operand()
	x, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch p.kind() {
		case ctoken.LBrack, ctoken.LParen, ctoken.Dot, ctoken.Arrow, ctoken.Inc, ctoken.Dec:
			// A postfix operator takes x as its left operand.
			if err := p.infix(); err != nil {
				return nil, err
			}
		default:
			p.operandDone(depth, hw)
			return x, nil
		}
		pos := p.pos()
		switch p.kind() {
		case ctoken.LBrack:
			p.next()
			i, err := p.expr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(ctoken.RBrack); err != nil {
				return nil, err
			}
			n := &cast.Index{X: x, I: i}
			n.P = pos
			x = n
		case ctoken.LParen:
			p.next()
			var args []cast.Expr
			for !p.at(ctoken.RParen) {
				a, err := p.assignExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if !p.accept(ctoken.Comma) {
					break
				}
			}
			if _, err := p.expect(ctoken.RParen); err != nil {
				return nil, err
			}
			n := &cast.Call{Fun: x, Args: args, SiteID: -1}
			n.P = pos
			x = n
		case ctoken.Dot, ctoken.Arrow:
			arrow := p.kind() == ctoken.Arrow
			p.next()
			name, err := p.expect(ctoken.Ident)
			if err != nil {
				return nil, err
			}
			n := &cast.Member{X: x, Name: name.Text, Arrow: arrow}
			n.P = pos
			x = n
		case ctoken.Inc, ctoken.Dec:
			inc := p.kind() == ctoken.Inc
			p.next()
			n := &cast.Postfix{Inc: inc, X: x}
			n.P = pos
			x = n
		}
	}
}

func (p *parser) primaryExpr() (cast.Expr, error) {
	pos := p.pos()
	switch p.kind() {
	case ctoken.IntLit:
		t := p.next()
		x := &cast.IntLit{Val: t.IntVal, Unsigned: t.Unsigned, Long: t.Long}
		x.P = pos
		return x, nil
	case ctoken.CharLit:
		t := p.next()
		x := &cast.IntLit{Val: t.IntVal, IsChar: true}
		x.P = pos
		return x, nil
	case ctoken.FloatLit:
		t := p.next()
		x := &cast.FloatLit{Val: t.FloatVal}
		x.P = pos
		return x, nil
	case ctoken.StrLit:
		t := p.next()
		x := &cast.StrLit{Val: []byte(t.Text), DataIndex: -1}
		x.P = pos
		return x, nil
	case ctoken.Ident:
		t := p.next()
		if v, ok := p.enums[t.Text]; ok {
			x := &cast.IntLit{Val: uint64(v)}
			x.P = pos
			return x, nil
		}
		x := &cast.Ident{Name: t.Text}
		x.P = pos
		return x, nil
	case ctoken.LParen:
		if err := p.enter(); err != nil {
			return nil, err
		}
		p.next()
		x, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(ctoken.RParen); err != nil {
			return nil, err
		}
		p.depth--
		return x, nil
	}
	return nil, p.errorf("expected expression, found %s", p.tok())
}
