package ctypes

import (
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func TestSizesAndAlignment(t *testing.T) {
	cases := []struct {
		t     *Type
		size  int64
		align int64
	}{
		{CharType, 1, 1},
		{UCharType, 1, 1},
		{ShortType, 2, 2},
		{IntType, 4, 4},
		{UIntType, 4, 4},
		{LongType, 8, 8},
		{FloatType, 4, 4},
		{DoubleType, 8, 8},
		{PointerTo(CharType), 8, 8},
		{ArrayOf(IntType, 10), 40, 4},
		{ArrayOf(ArrayOf(CharType, 3), 4), 12, 1},
	}
	for _, tc := range cases {
		if got := tc.t.Size(); got != tc.size {
			t.Errorf("%s size = %d, want %d", tc.t, got, tc.size)
		}
		if got := tc.t.Align(); got != tc.align {
			t.Errorf("%s align = %d, want %d", tc.t, got, tc.align)
		}
	}
}

func TestStructLayout(t *testing.T) {
	s := &StructInfo{Tag: "mix", Fields: []Field{
		{Name: "c", Type: CharType},
		{Name: "d", Type: DoubleType},
		{Name: "s", Type: ShortType},
		{Name: "p", Type: PointerTo(VoidType)},
	}}
	if err := s.Layout(); err != nil {
		t.Fatal(err)
	}
	wantOff := []int64{0, 8, 16, 24}
	for i, f := range s.Fields {
		if f.Offset != wantOff[i] {
			t.Errorf("field %s at %d, want %d", f.Name, f.Offset, wantOff[i])
		}
	}
	if s.Size != 32 || s.Align != 8 {
		t.Errorf("size/align = %d/%d, want 32/8", s.Size, s.Align)
	}
}

func TestStructLayoutIncompleteField(t *testing.T) {
	inner := &StructInfo{Tag: "inner"} // never laid out
	s := &StructInfo{Tag: "outer", Fields: []Field{
		{Name: "x", Type: &Type{Kind: Struct, Info: inner}},
	}}
	if err := s.Layout(); err == nil {
		t.Fatal("expected error for incomplete field")
	}
}

func TestEqual(t *testing.T) {
	info := &StructInfo{Tag: "s"}
	cases := []struct {
		a, b *Type
		want bool
	}{
		{IntType, IntType, true},
		{IntType, UIntType, false},
		{PointerTo(IntType), PointerTo(IntType), true},
		{PointerTo(IntType), PointerTo(CharType), false},
		{ArrayOf(IntType, 3), ArrayOf(IntType, 3), true},
		{ArrayOf(IntType, 3), ArrayOf(IntType, 4), false},
		{&Type{Kind: Struct, Info: info}, &Type{Kind: Struct, Info: info}, true},
		{&Type{Kind: Struct, Info: info}, &Type{Kind: Struct, Info: &StructInfo{Tag: "s"}}, false},
		{FuncOf(&Signature{Ret: IntType, Params: []*Type{CharType}}),
			FuncOf(&Signature{Ret: IntType, Params: []*Type{CharType}}), true},
		{FuncOf(&Signature{Ret: IntType, Params: []*Type{CharType}}),
			FuncOf(&Signature{Ret: IntType, Params: []*Type{IntType}}), false},
		{FuncOf(&Signature{Ret: IntType, Unknown: true}),
			FuncOf(&Signature{Ret: IntType, Params: []*Type{IntType}}), true},
	}
	for i, tc := range cases {
		if got := Equal(tc.a, tc.b); got != tc.want {
			t.Errorf("case %d: Equal(%s, %s) = %v", i, tc.a, tc.b, got)
		}
	}
}

func TestUsualArith(t *testing.T) {
	cases := []struct {
		a, b, want *Type
	}{
		{CharType, CharType, IntType},    // promotion
		{ShortType, UShortType, IntType}, // both promote to int
		{IntType, LongType, LongType},
		{IntType, UIntType, UIntType},
		{UIntType, LongType, LongType}, // long can hold uint
		{ULongType, LongType, ULongType},
		{IntType, FloatType, FloatType},
		{LongType, DoubleType, DoubleType},
		{FloatType, DoubleType, DoubleType},
	}
	for _, tc := range cases {
		if got := UsualArith(tc.a, tc.b); got.Kind != tc.want.Kind {
			t.Errorf("UsualArith(%s, %s) = %s, want %s", tc.a, tc.b, got, tc.want)
		}
		// Symmetry.
		if got := UsualArith(tc.b, tc.a); got.Kind != tc.want.Kind {
			t.Errorf("UsualArith(%s, %s) = %s, want %s", tc.b, tc.a, got, tc.want)
		}
	}
}

// Property: UsualArith is commutative and its result is at least as wide
// as both operands after promotion.
func TestUsualArithProperties(t *testing.T) {
	kinds := []Kind{Char, UChar, Short, UShort, Int, UInt, Long, ULong, Float, Double}
	f := func(ai, bi uint8) bool {
		a := Basic(kinds[int(ai)%len(kinds)])
		b := Basic(kinds[int(bi)%len(kinds)])
		r1, r2 := UsualArith(a, b), UsualArith(b, a)
		if r1.Kind != r2.Kind {
			return false
		}
		if r1.IsFloat() {
			return a.IsFloat() || b.IsFloat()
		}
		return r1.Size() >= Promote(a).Size() || b.IsFloat()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTypeStrings(t *testing.T) {
	cases := map[string]*Type{
		"int":           IntType,
		"char*":         PointerTo(CharType),
		"int[4][8]":     ArrayOf(ArrayOf(IntType, 8), 4),
		"unsigned long": ULongType,
		"int (*)(char*)": PointerTo(FuncOf(&Signature{
			Ret: IntType, Params: []*Type{PointerTo(CharType)},
		})),
	}
	for want, typ := range cases {
		if got := typ.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
}

// TestTypeStringLinear renders a pointer chain and an array chain of
// 8,192 levels, twice cparse.MaxDepth: a typedef and a declarator can
// each stack that many. Text built by concatenation, level by level,
// allocated bytes quadratic in the height (33 MB for the pointer
// chain); written into one builder it is a small multiple of the text,
// the builder's growth.
func TestTypeStringLinear(t *testing.T) {
	const levels = 8192
	ptr, arr := IntType, IntType
	for i := 0; i < levels; i++ {
		ptr = PointerTo(ptr)
		arr = ArrayOf(arr, 1)
	}
	for _, c := range []struct {
		name string
		typ  *Type
		want string
	}{
		{"pointer chain", ptr, "int" + strings.Repeat("*", levels)},
		{"array chain", arr, "int" + strings.Repeat("[1]", levels)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := c.typ.String()
		runtime.ReadMemStats(&after)
		if got != c.want {
			t.Errorf("%s: String is %d bytes, want %d", c.name, len(got), len(c.want))
		}
		if n, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*len(c.want)); n > limit {
			t.Errorf("%s: String allocated %d bytes for %d bytes of text, want at most %d", c.name, n, len(c.want), limit)
		}
	}
}

func TestPredicates(t *testing.T) {
	if !UIntType.IsUnsigned() || IntType.IsUnsigned() {
		t.Error("IsUnsigned wrong")
	}
	if !PointerTo(VoidType).IsVoidPtr() || PointerTo(IntType).IsVoidPtr() {
		t.Error("IsVoidPtr wrong")
	}
	fp := PointerTo(FuncOf(&Signature{Ret: VoidType}))
	if !fp.IsFuncPtr() || PointerTo(IntType).IsFuncPtr() {
		t.Error("IsFuncPtr wrong")
	}
	if !FloatType.IsArith() || !IntType.IsScalar() || VoidType.IsScalar() {
		t.Error("arith/scalar predicates wrong")
	}
}
