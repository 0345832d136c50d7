// Package cast defines the abstract syntax tree for the C subset, the
// symbol objects that semantic analysis binds identifiers to, and
// traversal helpers used by the static estimators.
package cast

import (
	"staticest/internal/ctoken"
	"staticest/internal/ctypes"
)

// Node is the interface implemented by every AST node.
type Node interface {
	Pos() ctoken.Pos
}

// ---------------------------------------------------------------------------
// Symbols

// ObjKind classifies a symbol object.
type ObjKind int

// Object kinds.
const (
	ObjVar ObjKind = iota
	ObjParam
	ObjFunc
	ObjEnumConst
)

func (k ObjKind) String() string {
	switch k {
	case ObjVar:
		return "var"
	case ObjParam:
		return "param"
	case ObjFunc:
		return "func"
	case ObjEnumConst:
		return "enum const"
	}
	return "object"
}

// Object is a named program entity: a variable, parameter, function, or
// enumeration constant. The semantic pass allocates storage for variables
// (global index or frame offset) and records address-taken facts used by
// the call-graph pointer-node approximation.
type Object struct {
	Name string
	Kind ObjKind
	Type *ctypes.Type
	Decl ctoken.Pos

	Global bool // file-scope variable or function

	// Storage assigned by sem: for globals, an index into the program's
	// global table; for locals/params, a byte offset in the stack frame.
	GlobalIndex int
	FrameOffset int64

	// EnumVal is the value of an enumeration constant.
	EnumVal int64

	// FuncIndex is the index into Program.Funcs for defined functions,
	// or -1 for builtins/undefined externals.
	FuncIndex int

	// AddrTakenCount counts static address-of operations applied to this
	// function name (explicit &f and implicit function-to-pointer decay
	// outside of calls). Used to weight the Markov pointer node.
	AddrTakenCount int

	// Builtin marks library functions provided by the interpreter.
	Builtin bool
}

// ---------------------------------------------------------------------------
// Expressions

// Expr is the interface implemented by all expression nodes. Every
// expression carries the type computed by semantic analysis.
type Expr interface {
	Node
	Type() *ctypes.Type
	exprNode()
}

type exprBase struct {
	P ctoken.Pos
	T *ctypes.Type
}

func (e *exprBase) Pos() ctoken.Pos        { return e.P }
func (e *exprBase) Type() *ctypes.Type     { return e.T }
func (e *exprBase) SetType(t *ctypes.Type) { e.T = t }
func (e *exprBase) exprNode()              {}

// IntLit is an integer or character literal. Unsigned and Long record
// the literal's suffixes, which steer its C type.
type IntLit struct {
	exprBase
	Val      uint64
	IsChar   bool
	Unsigned bool
	Long     bool
}

// FloatLit is a floating-point literal.
type FloatLit struct {
	exprBase
	Val float64
}

// StrLit is a string literal (value excludes the terminating NUL, which
// the interpreter appends when materializing the literal).
type StrLit struct {
	exprBase
	Val []byte
	// DataIndex is assigned by sem: index into the program's string table.
	DataIndex int
}

// Ident is a reference to a named object.
type Ident struct {
	exprBase
	Name string
	Obj  *Object // bound by sem
}

// UnaryOp enumerates unary operators.
type UnaryOp int

// Unary operators.
const (
	Neg    UnaryOp = iota // -x
	BitNot                // ~x
	LogNot                // !x
	Deref                 // *x
	Addr                  // &x
	PreInc                // ++x
	PreDec                // --x
)

var unaryNames = [...]string{"-", "~", "!", "*", "&", "++", "--"}

func (op UnaryOp) String() string { return unaryNames[op] }

// Unary is a prefix unary expression.
type Unary struct {
	exprBase
	Op UnaryOp
	X  Expr
}

// Postfix is x++ or x--.
type Postfix struct {
	exprBase
	Inc bool // true for ++, false for --
	X   Expr
}

// BinaryOp enumerates non-logical binary operators.
type BinaryOp int

// Binary operators.
const (
	Add BinaryOp = iota
	Sub
	Mul
	Div
	Rem
	And
	Or
	Xor
	Shl
	Shr
	Lt
	Gt
	Le
	Ge
	Eq
	Ne
)

var binaryNames = [...]string{
	"+", "-", "*", "/", "%", "&", "|", "^", "<<", ">>",
	"<", ">", "<=", ">=", "==", "!=",
}

func (op BinaryOp) String() string { return binaryNames[op] }

// Binary is a binary expression (excluding && and ||, which short-circuit
// and are represented by Logical).
type Binary struct {
	exprBase
	Op   BinaryOp
	X, Y Expr
}

// Logical is a short-circuit && or || expression.
type Logical struct {
	exprBase
	AndAnd bool // true: &&, false: ||
	X, Y   Expr
}

// Cond is the ternary conditional c ? t : f.
type Cond struct {
	exprBase
	C, Then, Else Expr
}

// AssignOp enumerates assignment operators; Plain is '='.
type AssignOp int

// Assignment operators. Non-plain ops correspond to BinaryOp values.
const (
	Plain AssignOp = iota
	AddEq
	SubEq
	MulEq
	DivEq
	RemEq
	AndEq
	OrEq
	XorEq
	ShlEq
	ShrEq
)

var assignNames = [...]string{"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="}

func (op AssignOp) String() string { return assignNames[op] }

// BinOp returns the underlying binary operator for a compound assignment.
func (op AssignOp) BinOp() BinaryOp {
	switch op {
	case AddEq:
		return Add
	case SubEq:
		return Sub
	case MulEq:
		return Mul
	case DivEq:
		return Div
	case RemEq:
		return Rem
	case AndEq:
		return And
	case OrEq:
		return Or
	case XorEq:
		return Xor
	case ShlEq:
		return Shl
	case ShrEq:
		return Shr
	}
	panic("cast: Plain has no binary operator")
}

// Assign is an assignment expression.
type Assign struct {
	exprBase
	Op   AssignOp
	L, R Expr
}

// Call is a function call. Direct calls have Fun as an Ident bound to an
// ObjFunc; anything else is an indirect call through a pointer. SiteID is
// a program-unique call-site identifier assigned by sem (-1 for calls to
// builtins, which are not profiled as call sites).
type Call struct {
	exprBase
	Fun    Expr
	Args   []Expr
	SiteID int
}

// Callee returns the called function's object for a direct call, or nil
// for indirect calls.
func (c *Call) Callee() *Object {
	if id, ok := c.Fun.(*Ident); ok && id.Obj != nil && id.Obj.Kind == ObjFunc {
		return id.Obj
	}
	return nil
}

// Index is an array/pointer subscript x[i].
type Index struct {
	exprBase
	X, I Expr
}

// Member is x.f or x->f.
type Member struct {
	exprBase
	X     Expr
	Name  string
	Arrow bool
	Field *ctypes.Field // bound by sem
}

// SizeofExpr is sizeof applied to an expression.
type SizeofExpr struct {
	exprBase
	X Expr
}

// SizeofType is sizeof applied to a type name.
type SizeofType struct {
	exprBase
	Of *ctypes.Type
}

// CastExpr is an explicit type conversion.
type CastExpr struct {
	exprBase
	To *ctypes.Type
	X  Expr
}

// Comma is the comma operator.
type Comma struct {
	exprBase
	X, Y Expr
}

// ---------------------------------------------------------------------------
// Statements

// Stmt is the interface implemented by all statement nodes.
type Stmt interface {
	Node
	stmtNode()
}

type stmtBase struct{ P ctoken.Pos }

func (s *stmtBase) Pos() ctoken.Pos { return s.P }
func (s *stmtBase) stmtNode()       {}

// Empty is a lone semicolon.
type Empty struct{ stmtBase }

// ExprStmt is an expression evaluated for effect.
type ExprStmt struct {
	stmtBase
	X Expr
}

// DeclStmt declares one or more local variables.
type DeclStmt struct {
	stmtBase
	Decls []*VarDecl
}

// Block is a compound statement.
type Block struct {
	stmtBase
	Stmts []Stmt
}

// Clear is a synthetic statement with no source form, produced by the
// CFG-level inliner: each execution zeroes the byte range
// [Off, Off+Size) of the current stack frame. It reproduces, for an
// inlined callee's frame region, the zeroing the interpreter performs on
// every function entry, so locals of the spliced body start each
// simulated invocation exactly as a real call would.
type Clear struct {
	stmtBase
	Off  int64
	Size int64
}

// NewClear constructs a frame-zeroing statement (see Clear).
func NewClear(off, size int64, pos ctoken.Pos) *Clear {
	return &Clear{stmtBase: stmtBase{P: pos}, Off: off, Size: size}
}

// BranchStmt is implemented by statements that contain a predictable
// two-way branch condition: If, While, DoWhile, For.
type BranchStmt interface {
	Stmt
	// BranchID returns the program-unique branch-site identifier
	// assigned by sem, or -1 if the statement has no condition
	// (a `for (;;)`).
	BranchID() int
	// CondExpr returns the controlling expression (nil for `for (;;)`).
	CondExpr() Expr
	// IsLoop reports whether the branch controls loop continuation.
	IsLoop() bool
}

type branchBase struct {
	stmtBase
	Branch int // branch-site ID, assigned by sem; -1 if no condition
}

func (b *branchBase) BranchID() int { return b.Branch }

// SetBranchID assigns the branch-site identifier (used by sem).
func (b *branchBase) SetBranchID(id int) { b.Branch = id }

// If is an if statement with an optional else arm.
type If struct {
	branchBase
	Cond Expr
	Then Stmt
	Else Stmt // nil if absent
}

func (s *If) CondExpr() Expr { return s.Cond }
func (s *If) IsLoop() bool   { return false }

// While is a while loop.
type While struct {
	branchBase
	Cond Expr
	Body Stmt
}

func (s *While) CondExpr() Expr { return s.Cond }
func (s *While) IsLoop() bool   { return true }

// DoWhile is a do-while loop.
type DoWhile struct {
	branchBase
	Body Stmt
	Cond Expr
}

func (s *DoWhile) CondExpr() Expr { return s.Cond }
func (s *DoWhile) IsLoop() bool   { return true }

// For is a for loop; Init, Cond and Post may each be nil (C89 keeps
// declarations out of for-init; the subset allows expressions only).
// InitS and PostS wrap Init and Post as statement nodes shared between
// the CFG builder and the AST-walk estimators, so both views agree on
// node identity.
type For struct {
	branchBase
	Init  Expr      // nil if absent
	Cond  Expr      // nil if absent
	Post  Expr      // nil if absent
	InitS *ExprStmt // wraps Init; nil if absent
	PostS *ExprStmt // wraps Post; nil if absent
	Body  Stmt
}

func (s *For) CondExpr() Expr { return s.Cond }
func (s *For) IsLoop() bool   { return true }

// SwitchCase is one arm of a switch. A single arm may carry several case
// values (stacked labels). Default arms have IsDefault set. Vals holds
// the constant-folded label values (computed at parse time, where enum
// constants are in scope).
type SwitchCase struct {
	Vals      []int64
	IsDefault bool
	Stmts     []Stmt
	Pos       ctoken.Pos
}

// Switch is a switch statement in structured form: a tag expression and a
// sequence of arms. Fall-through between consecutive arms is preserved
// (an arm without a trailing break falls into the next arm).
type Switch struct {
	stmtBase
	Tag    Expr
	Cases  []*SwitchCase
	Branch int // branch-site ID for profiling arm selection
}

// Break exits the nearest loop or switch.
type Break struct{ stmtBase }

// Continue jumps to the nearest loop's next iteration.
type Continue struct{ stmtBase }

// Return returns from the function; X may be nil.
type Return struct {
	stmtBase
	X Expr
}

// Goto is an unconditional jump to a label.
type Goto struct {
	stmtBase
	Label string
}

// Labeled is a labeled statement (a goto target).
type Labeled struct {
	stmtBase
	Label string
	Stmt  Stmt
}

// ---------------------------------------------------------------------------
// Declarations

// Init is an initializer: either an expression or a brace list.
type Init interface {
	Node
	initNode()
}

// ExprInit is a scalar initializer.
type ExprInit struct {
	P ctoken.Pos
	X Expr
}

func (i *ExprInit) Pos() ctoken.Pos { return i.P }
func (i *ExprInit) initNode()       {}

// ListInit is a brace-enclosed initializer list.
type ListInit struct {
	P     ctoken.Pos
	Elems []Init
}

func (i *ListInit) Pos() ctoken.Pos { return i.P }
func (i *ListInit) initNode()       {}

// VarDecl declares a single variable, possibly initialized.
type VarDecl struct {
	P    ctoken.Pos
	Obj  *Object
	Init Init // nil if absent
}

func (d *VarDecl) Pos() ctoken.Pos { return d.P }

// FuncDecl is a function definition.
type FuncDecl struct {
	P      ctoken.Pos
	Obj    *Object
	Params []*Object
	Body   *Block

	// Filled by sem:
	FrameSize int64     // bytes of locals + params
	Locals    []*Object // all locals in declaration order
	Labels    []string  // declared labels
}

func (d *FuncDecl) Pos() ctoken.Pos { return d.P }

// Name returns the function's name.
func (d *FuncDecl) Name() string { return d.Obj.Name }

// File is a parsed translation unit.
type File struct {
	Name     string
	Globals  []*VarDecl  // file-scope variables in order
	Funcs    []*FuncDecl // defined functions in order
	Structs  []*ctypes.StructInfo
	Typedefs map[string]*ctypes.Type
	// Externs are declared-but-undefined functions (resolved to builtins
	// or reported by sem).
	Externs []*Object
}
