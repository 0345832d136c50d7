// Package ctypes models the C subset's type system: scalar types,
// pointers, arrays, structs, enums, and function signatures, together
// with size/alignment/field-offset layout (LP64: int 4 bytes, long and
// pointers 8 bytes).
package ctypes

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind classifies a type.
type Kind int

// Type kinds.
const (
	Invalid Kind = iota
	Void
	Char  // signed 8-bit
	UChar // unsigned 8-bit
	Short
	UShort
	Int
	UInt
	Long
	ULong
	Float
	Double
	Ptr
	Array
	Struct
	Func
)

var kindNames = [...]string{
	Invalid: "invalid", Void: "void", Char: "char", UChar: "unsigned char",
	Short: "short", UShort: "unsigned short", Int: "int", UInt: "unsigned int",
	Long: "long", ULong: "unsigned long", Float: "float", Double: "double",
	Ptr: "ptr", Array: "array", Struct: "struct", Func: "func",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Field is a struct member with its computed byte offset.
type Field struct {
	Name   string
	Type   *Type
	Offset int64
}

// StructInfo carries the members and layout of a struct type. A struct
// parsed with a tag but no body is incomplete until defined.
type StructInfo struct {
	Tag      string
	Fields   []Field
	Size     int64
	Align    int64
	Complete bool
}

// FieldByName returns the field with the given name, or nil.
func (s *StructInfo) FieldByName(name string) *Field {
	for i := range s.Fields {
		if s.Fields[i].Name == name {
			return &s.Fields[i]
		}
	}
	return nil
}

// Signature describes a function type.
type Signature struct {
	Ret      *Type
	Params   []*Type
	Variadic bool
	// Old-style declaration with unknown parameters, e.g. `int f();`.
	Unknown bool
}

// Type is a C type. Types are compared structurally with Equal; struct
// types compare by identity of their StructInfo.
type Type struct {
	Kind   Kind
	Elem   *Type       // Ptr, Array
	Len    int64       // Array
	Info   *StructInfo // Struct
	Sig    *Signature  // Func
	Const  bool        // const-qualified (informational)
	IsEnum bool        // an int that came from an enum declaration
}

// Singleton basic types. These are shared; never mutate them.
var (
	VoidType   = &Type{Kind: Void}
	CharType   = &Type{Kind: Char}
	UCharType  = &Type{Kind: UChar}
	ShortType  = &Type{Kind: Short}
	UShortType = &Type{Kind: UShort}
	IntType    = &Type{Kind: Int}
	UIntType   = &Type{Kind: UInt}
	LongType   = &Type{Kind: Long}
	ULongType  = &Type{Kind: ULong}
	FloatType  = &Type{Kind: Float}
	DoubleType = &Type{Kind: Double}
)

// Basic returns the shared singleton for a basic kind.
func Basic(k Kind) *Type {
	switch k {
	case Void:
		return VoidType
	case Char:
		return CharType
	case UChar:
		return UCharType
	case Short:
		return ShortType
	case UShort:
		return UShortType
	case Int:
		return IntType
	case UInt:
		return UIntType
	case Long:
		return LongType
	case ULong:
		return ULongType
	case Float:
		return FloatType
	case Double:
		return DoubleType
	}
	panic(fmt.Sprintf("ctypes.Basic: not a basic kind: %v", k))
}

// PointerTo returns a pointer type to elem.
func PointerTo(elem *Type) *Type { return &Type{Kind: Ptr, Elem: elem} }

// ArrayOf returns an array type of n elements of elem.
func ArrayOf(elem *Type, n int64) *Type { return &Type{Kind: Array, Elem: elem, Len: n} }

// FuncOf returns a function type with the given signature.
func FuncOf(sig *Signature) *Type { return &Type{Kind: Func, Sig: sig} }

// IsInteger reports whether t is an integer (including char and enum).
func (t *Type) IsInteger() bool {
	switch t.Kind {
	case Char, UChar, Short, UShort, Int, UInt, Long, ULong:
		return true
	}
	return false
}

// IsUnsigned reports whether t is an unsigned integer type.
func (t *Type) IsUnsigned() bool {
	switch t.Kind {
	case UChar, UShort, UInt, ULong:
		return true
	}
	return false
}

// IsFloat reports whether t is float or double.
func (t *Type) IsFloat() bool { return t.Kind == Float || t.Kind == Double }

// IsArith reports whether t is an arithmetic type.
func (t *Type) IsArith() bool { return t.IsInteger() || t.IsFloat() }

// IsScalar reports whether t is arithmetic or a pointer.
func (t *Type) IsScalar() bool { return t.IsArith() || t.Kind == Ptr }

// IsVoidPtr reports whether t is void*.
func (t *Type) IsVoidPtr() bool { return t.Kind == Ptr && t.Elem.Kind == Void }

// IsFuncPtr reports whether t is a pointer to function.
func (t *Type) IsFuncPtr() bool { return t.Kind == Ptr && t.Elem.Kind == Func }

// Size returns the byte size of the type. Incomplete structs, void and
// function types have size 0.
func (t *Type) Size() int64 {
	switch t.Kind {
	case Char, UChar:
		return 1
	case Short, UShort:
		return 2
	case Int, UInt, Float:
		return 4
	case Long, ULong, Double, Ptr:
		return 8
	case Array:
		return t.Len * t.Elem.Size()
	case Struct:
		if t.Info != nil && t.Info.Complete {
			return t.Info.Size
		}
		return 0
	}
	return 0
}

// Align returns the byte alignment of the type.
func (t *Type) Align() int64 {
	switch t.Kind {
	case Array:
		return t.Elem.Align()
	case Struct:
		if t.Info != nil && t.Info.Complete {
			return t.Info.Align
		}
		return 1
	default:
		if s := t.Size(); s > 0 {
			return s
		}
		return 1
	}
}

// MaxObjectSize is the largest object, in bytes, a program may declare
// or allocate: an array or struct type, a function's stack frame, the
// program's global storage, or one malloc/calloc/realloc block. The
// interpreter allocates every object eagerly on the Go heap, and the
// bytecode lowering holds offsets and element sizes in 32-bit operands;
// this bound keeps both safe for untrusted programs.
const MaxObjectSize = 1 << 30

// Layout computes field offsets, size, and alignment for the struct and
// marks it complete. It returns an error for fields of incomplete or
// zero-size type and for a struct larger than MaxObjectSize.
func (s *StructInfo) Layout() error {
	var off, align int64 = 0, 1
	for i := range s.Fields {
		f := &s.Fields[i]
		fsz := f.Type.Size()
		if fsz <= 0 {
			return fmt.Errorf("struct %s: field %s has incomplete type %s",
				s.Tag, f.Name, f.Type)
		}
		fal := f.Type.Align()
		off = alignUp(off, fal)
		f.Offset = off
		off += fsz
		if off > MaxObjectSize {
			return fmt.Errorf("struct %s: size exceeds the %d-byte object limit at field %s",
				s.Tag, int64(MaxObjectSize), f.Name)
		}
		if fal > align {
			align = fal
		}
	}
	s.Size = alignUp(off, align)
	if s.Size == 0 {
		s.Size = align // empty structs take one alignment unit
	}
	s.Align = align
	s.Complete = true
	return nil
}

func alignUp(n, a int64) int64 { return (n + a - 1) / a * a }

// Equal reports structural type equality. Struct types are equal iff they
// share the same StructInfo. Qualifiers are ignored.
func Equal(a, b *Type) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil || a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case Ptr:
		return Equal(a.Elem, b.Elem)
	case Array:
		return a.Len == b.Len && Equal(a.Elem, b.Elem)
	case Struct:
		return a.Info == b.Info
	case Func:
		as, bs := a.Sig, b.Sig
		if as.Unknown || bs.Unknown {
			return Equal(as.Ret, bs.Ret)
		}
		if as.Variadic != bs.Variadic || len(as.Params) != len(bs.Params) {
			return false
		}
		if !Equal(as.Ret, bs.Ret) {
			return false
		}
		for i := range as.Params {
			if !Equal(as.Params[i], bs.Params[i]) {
				return false
			}
		}
		return true
	default:
		return true
	}
}

// String renders the type in C-ish syntax.
func (t *Type) String() string {
	var b strings.Builder
	t.write(&b)
	return b.String()
}

// write appends the type's text to b. A run of pointer levels or of
// array dimensions is written in one pass after its base, so the text
// of a type h levels high takes time and space linear in h.
func (t *Type) write(b *strings.Builder) {
	if t == nil {
		b.WriteString("<nil>")
		return
	}
	switch t.Kind {
	case Ptr:
		if t.Elem.Kind == Func {
			t.Elem.writeSig(b, "(*)")
			return
		}
		base, stars := t, 0
		for base.Kind == Ptr && base.Elem.Kind != Func {
			base, stars = base.Elem, stars+1
		}
		base.write(b)
		for ; stars > 0; stars-- {
			b.WriteByte('*')
		}
	case Array:
		// Render dimensions outermost-first, as C declarators read.
		base := t
		for base.Kind == Array {
			base = base.Elem
		}
		base.write(b)
		var num [20]byte
		for a := t; a.Kind == Array; a = a.Elem {
			b.WriteByte('[')
			b.Write(strconv.AppendInt(num[:0], a.Len, 10))
			b.WriteByte(']')
		}
	case Struct:
		if t.Info != nil && t.Info.Tag != "" {
			b.WriteString("struct ")
			b.WriteString(t.Info.Tag)
			return
		}
		b.WriteString("struct <anon>")
	case Func:
		t.writeSig(b, "")
	default:
		b.WriteString(t.Kind.String())
	}
}

func (t *Type) writeSig(b *strings.Builder, name string) {
	t.Sig.Ret.write(b)
	b.WriteString(" ")
	b.WriteString(name)
	b.WriteString("(")
	if t.Sig.Unknown {
		b.WriteString("?")
	} else {
		for i, p := range t.Sig.Params {
			if i > 0 {
				b.WriteString(", ")
			}
			p.write(b)
		}
		if t.Sig.Variadic {
			if len(t.Sig.Params) > 0 {
				b.WriteString(", ")
			}
			b.WriteString("...")
		}
	}
	b.WriteString(")")
}

// IntegerRank returns the C conversion rank used by the usual arithmetic
// conversions. Larger means wider.
func IntegerRank(k Kind) int {
	switch k {
	case Char, UChar:
		return 1
	case Short, UShort:
		return 2
	case Int, UInt:
		return 3
	case Long, ULong:
		return 4
	}
	return 0
}

// Promote applies the integer promotions: types narrower than int become
// int.
func Promote(t *Type) *Type {
	if t.IsInteger() && IntegerRank(t.Kind) < IntegerRank(Int) {
		return IntType
	}
	return t
}

// UsualArith applies the usual arithmetic conversions to a pair of
// arithmetic types and returns the common type.
func UsualArith(a, b *Type) *Type {
	if a.Kind == Double || b.Kind == Double {
		return DoubleType
	}
	if a.Kind == Float || b.Kind == Float {
		return FloatType
	}
	a, b = Promote(a), Promote(b)
	if a.Kind == b.Kind {
		return a
	}
	ra, rb := IntegerRank(a.Kind), IntegerRank(b.Kind)
	ua, ub := a.IsUnsigned(), b.IsUnsigned()
	switch {
	case ua == ub:
		if ra > rb {
			return a
		}
		return b
	case ua && ra >= rb:
		return a
	case ub && rb >= ra:
		return b
	case ua: // signed b has higher rank; it can represent all of a on LP64
		return b
	default:
		return a
	}
}
