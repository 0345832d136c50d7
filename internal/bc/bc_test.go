package bc_test

import (
	"testing"
	"unsafe"

	"staticest/internal/bc"
	"staticest/internal/cfg"
	"staticest/internal/cparse"
	"staticest/internal/sem"
)

// TestInstrSize pins the instruction at 24 bytes on 64-bit targets:
// Width rides in the padding after Op, so an instruction is its 16
// bytes of opcode and operands plus the Typ pointer.
func TestInstrSize(t *testing.T) {
	if n, want := unsafe.Sizeof(bc.Instr{}), 16+unsafe.Sizeof(uintptr(0)); n != want {
		t.Errorf("Instr is %d bytes, want %d", n, want)
	}
}

// lower compiles src's main under full instrumentation and returns the
// instructions of its body, block markers and position updates left out.
func lower(t *testing.T, src string) []bc.Instr {
	t.Helper()
	file, err := cparse.ParseFile("test.c", []byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	sp, err := sem.Analyze(file)
	if err != nil {
		t.Fatalf("sem: %v", err)
	}
	cp, err := cfg.Build(sp)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	mod, err := bc.Compile(cp, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var code []bc.Instr
	for _, in := range mod.Funcs[sp.Main.Obj.FuncIndex].Code {
		if in.Op != bc.OpBlockFull && in.Op != bc.OpSetPos {
			code = append(code, in)
		}
	}
	return code
}

// TestLoweringResolvesTypes checks what the lowering decides from
// static types: each statement's instructions, with each typed
// instruction's Width.
func TestLoweringResolvesTypes(t *testing.T) {
	type op struct {
		Op bc.Op
		W  bc.Width
	}
	for _, tc := range []struct {
		name, body string
		want       []op
	}{
		// int + int is int: the store needs no conversion.
		{"int", "int x; x = x + 1;", []op{
			{bc.OpLoadLocal, bc.I32}, {bc.OpConst, 0}, {bc.OpBinop, bc.I32},
			{bc.OpStoreLocal, bc.I32}}},
		// char + int is int: the store narrows it.
		{"char", "char c; c = c + 1;", []op{
			{bc.OpLoadLocal, bc.I8}, {bc.OpConst, 0}, {bc.OpBinop, bc.I32},
			{bc.OpConvert, 0}, {bc.OpStoreLocal, bc.I8}}},
		// char += char adds as ints: the value and the store narrow it.
		{"char compound", "char c, d; c += d;", []op{
			{bc.OpLoadLocal, bc.I8}, {bc.OpLoadLocal, bc.I8}, {bc.OpBinop, bc.I32},
			{bc.OpConvert, 0}, {bc.OpStoreLocal, bc.I8}}},
		{"unsigned and int", "unsigned u; int i; u = u - i;", []op{
			{bc.OpLoadLocal, bc.U32}, {bc.OpLoadLocal, bc.I32}, {bc.OpBinop, bc.U32},
			{bc.OpStoreLocal, bc.U32}}},
		{"float and int", "float f; f = f * 2;", []op{
			{bc.OpLoadLocal, bc.F32}, {bc.OpConst, 0}, {bc.OpBinop, bc.F32},
			{bc.OpStoreLocal, bc.F32}}},
		{"double to int", "double d; int i; i = d;", []op{
			{bc.OpLoadLocal, bc.F64}, {bc.OpConvert, 0}, {bc.OpStoreLocal, bc.I32}}},
		{"cast to own type", "long l; l = (long)l;", []op{
			{bc.OpLoadLocal, bc.I64}, {bc.OpStoreLocal, bc.I64}}},
		// Pointer arithmetic stays generic, and so does the conversion
		// of the decayed array to p's type, another *ctypes.Type; the
		// store is a typed pointer-wide access.
		{"pointer", "int a[4]; int *p; p = a + 1;", []op{
			{bc.OpAddrLocal, 0}, {bc.OpConst, 0}, {bc.OpBinop, bc.Generic},
			{bc.OpConvert, 0}, {bc.OpStoreLocal, bc.U64}}},
		{"pointer difference", "int a[4]; long n; n = &a[3] - a;", []op{
			{bc.OpAddrLocal, 0}, {bc.OpConst, 0}, {bc.OpIndexAddr, 0}, {bc.OpRetype, 0},
			{bc.OpAddrLocal, 0}, {bc.OpBinop, bc.Generic}, {bc.OpStoreLocal, bc.I64}}},
		{"increment through a pointer", "short s; short *p; p = &s; (*p)++;", []op{
			{bc.OpAddrLocal, 0}, {bc.OpRetype, 0}, {bc.OpConvert, 0}, {bc.OpStoreLocal, bc.U64},
			{bc.OpLoadLocal, bc.U64}, {bc.OpDerefAddr, 0}, {bc.OpLoadMemKeep, bc.I16},
			{bc.OpTrace, 0}, {bc.OpTrace, 0}, {bc.OpPostfix, bc.I16}, {bc.OpDrop, 0}}},
		{"pointer increment", "char *p; p++;", []op{
			{bc.OpAddrLocal, 0}, {bc.OpLoadMemKeep, bc.U64}, {bc.OpTrace, 0}, {bc.OpTrace, 0},
			{bc.OpPostfix, bc.Generic}, {bc.OpDrop, 0}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code := lower(t, "int main(void) { "+tc.body+" return 0; }")
			var got []op
			for _, in := range code {
				if in.Op == bc.OpRetZero || in.Op == bc.OpRet {
					break
				}
				got = append(got, op{in.Op, in.W})
			}
			// The return's constant is not part of the statement.
			if n := len(got); n > 0 && got[n-1].Op == bc.OpConst {
				got = got[:n-1]
			}
			if len(got) != len(tc.want) {
				t.Fatalf("lowered to %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("lowered to %v, want %v", got, tc.want)
				}
			}
		})
	}
}
