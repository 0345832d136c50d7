package interp

import (
	"math"

	"staticest/internal/bc"
	"staticest/internal/cast"
	"staticest/internal/ctypes"
)

// cString reads the NUL-terminated string at p (excluding the NUL). A
// string that reaches the end of the stack's backing array grows it, as
// a checked access does.
func (m *Machine) cString(p uint64) []byte {
	if p == 0 {
		m.fail("null string pointer")
	}
	s := m.seg(ptrSeg(p))
	off, size := ptrOff(p), s.size()
	if off < 0 || off > size {
		m.fail("string pointer out of bounds")
	}
	for i := off; i < size; i++ {
		if i >= int64(len(s.data)) {
			m.growStack(i + 1)
		}
		if s.data[i] == 0 {
			return s.data[off:i]
		}
	}
	m.fail("unterminated string in %q", s.name)
	return nil
}

func (m *Machine) callBuiltin(name string, args []value, call *cast.Call) value {
	m.builtins++
	iv := func(i int) int64 { return args[i].i }
	pv := func(i int) uint64 { return uint64(args[i].i) }
	fv := func(i int) float64 { return toF(args[i]) }
	ret := func(v int64) value { return intValue(v, ctypes.IntType) }
	retL := func(v int64) value { return intValue(v, ctypes.LongType) }
	retF := func(v float64) value { return floatValue(v, ctypes.DoubleType) }
	retP := func(p uint64, t *ctypes.Type) value { return ptrValue(p, t) }
	void := value{typ: ctypes.VoidType}
	charPtr := charPtrType
	voidPtr := voidPtrType

	need := func(n int) {
		if len(args) < n {
			m.fail("builtin %s: %d arguments, need %d", name, len(args), n)
		}
	}

	switch name {
	case "printf":
		need(1)
		s := m.formatPrintf(m.cString(pv(0)), args[1:])
		m.out.Write(s)
		return ret(int64(len(s)))
	case "sprintf":
		need(2)
		s := m.formatPrintf(m.cString(pv(1)), args[2:])
		dst := m.checkedSlice(pv(0), int64(len(s))+1)
		copy(dst, s)
		dst[len(s)] = 0
		return ret(int64(len(s)))
	case "putchar":
		need(1)
		m.out.WriteByte(byte(iv(0)))
		return ret(iv(0))
	case "puts":
		need(1)
		m.out.Write(m.cString(pv(0)))
		m.out.WriteByte('\n')
		return ret(0)
	case "getchar":
		if m.inPos >= len(m.stdin) {
			return ret(-1)
		}
		c := m.stdin[m.inPos]
		m.inPos++
		return ret(int64(c))
	case "malloc":
		need(1)
		n := iv(0)
		if n < 0 || n > ctypes.MaxObjectSize {
			m.fail("malloc of %d bytes", n)
		}
		if n == 0 {
			n = 1
		}
		return retP(encodePtr(m.newSegment(make([]byte, n), segHeap, "malloc"), 0), voidPtr)
	case "calloc":
		need(2)
		// Bound each factor before multiplying so the product cannot
		// wrap into a small, valid size.
		cnt, size := iv(0), iv(1)
		if cnt < 0 || size < 0 || cnt > ctypes.MaxObjectSize || size > ctypes.MaxObjectSize ||
			cnt*size > ctypes.MaxObjectSize {
			m.fail("calloc of %d elements of %d bytes", cnt, size)
		}
		n := cnt * size
		if n == 0 {
			n = 1
		}
		return retP(encodePtr(m.newSegment(make([]byte, n), segHeap, "calloc"), 0), voidPtr)
	case "realloc":
		need(2)
		n := iv(1)
		if n < 0 || n > ctypes.MaxObjectSize {
			m.fail("realloc to %d bytes", n)
		}
		if n == 0 {
			n = 1
		}
		var old *segment
		if p := pv(0); p != 0 {
			old = m.seg(ptrSeg(p))
			if old.kind != segHeap {
				m.fail("realloc of non-heap pointer")
			}
			if off := ptrOff(p); off != 0 {
				m.fail("realloc of a pointer %d bytes into a heap block", off)
			}
		}
		data := make([]byte, n)
		if old != nil {
			copy(data, old.data)
			old.freed = true
		}
		return retP(encodePtr(m.newSegment(data, segHeap, "realloc"), 0), voidPtr)
	case "free":
		need(1)
		p := pv(0)
		if p == 0 {
			return void
		}
		s := m.seg(ptrSeg(p))
		if s.kind != segHeap {
			m.fail("free of non-heap pointer (%s)", s.name)
		}
		s.freed = true
		return void
	case "strlen":
		need(1)
		return retL(int64(len(m.cString(pv(0)))))
	case "strcmp":
		need(2)
		return ret(int64(cmpBytes(m.cString(pv(0)), m.cString(pv(1)))))
	case "strncmp":
		need(3)
		a, b := m.cString(pv(0)), m.cString(pv(1))
		n := iv(2)
		a = clipBytes(a, n)
		b = clipBytes(b, n)
		return ret(int64(cmpBytes(a, b)))
	case "strcpy":
		need(2)
		src := m.cString(pv(1))
		dst := m.checkedSlice(pv(0), int64(len(src))+1)
		copy(dst, src)
		dst[len(src)] = 0
		return retP(pv(0), charPtr)
	case "strncpy":
		need(3)
		src := m.cString(pv(1))
		n := iv(2)
		dst := m.checkedSlice(pv(0), n)
		for i := int64(0); i < n; i++ {
			if i < int64(len(src)) {
				dst[i] = src[i]
			} else {
				dst[i] = 0
			}
		}
		return retP(pv(0), charPtr)
	case "strcat":
		need(2)
		cur := m.cString(pv(0))
		src := m.cString(pv(1))
		dst := m.checkedSlice(pv(0), int64(len(cur)+len(src))+1)
		copy(dst[len(cur):], src)
		dst[len(cur)+len(src)] = 0
		return retP(pv(0), charPtr)
	case "strchr":
		need(2)
		s := m.cString(pv(0))
		c := byte(iv(1))
		for i := 0; i <= len(s); i++ {
			var b byte
			if i < len(s) {
				b = s[i]
			}
			if b == c {
				return retP(pv(0)+uint64(i), charPtr)
			}
		}
		return retP(0, charPtr)
	case "strstr":
		need(2)
		hay := m.cString(pv(0))
		needle := m.cString(pv(1))
		if len(needle) == 0 {
			return retP(pv(0), charPtr)
		}
		for i := 0; i+len(needle) <= len(hay); i++ {
			if string(hay[i:i+len(needle)]) == string(needle) {
				return retP(pv(0)+uint64(i), charPtr)
			}
		}
		return retP(0, charPtr)
	case "memset":
		need(3)
		n := iv(2)
		dst := m.checkedSlice(pv(0), n)
		c := byte(iv(1))
		for i := range dst {
			dst[i] = c
		}
		return retP(pv(0), voidPtr)
	case "memcpy", "memmove":
		need(3)
		m.copyMem(pv(0), pv(1), iv(2))
		return retP(pv(0), voidPtr)
	case "memcmp":
		need(3)
		n := iv(2)
		a := m.checkedSlice(pv(0), n)
		b := m.checkedSlice(pv(1), n)
		return ret(int64(cmpBytes(a, b)))
	case "atoi", "atol":
		need(1)
		v := parseCInt(m.cString(pv(0)))
		if name == "atoi" {
			return ret(bc.I32.Trunc(v))
		}
		return retL(v)
	case "atof":
		need(1)
		return retF(parseCFloat(m.cString(pv(0))))
	case "abs":
		need(1)
		v := bc.I32.Trunc(iv(0))
		if v < 0 {
			v = -v
		}
		return ret(v)
	case "labs":
		need(1)
		v := iv(0)
		if v < 0 {
			v = -v
		}
		return retL(v)
	case "exit":
		need(1)
		panic(exitPanic{code: int(int32(iv(0)))})
	case "abort":
		m.fail("abort() called")
	case "rand":
		m.rng = m.rng*6364136223846793005 + 1442695040888963407
		return ret(int64((m.rng >> 33) & 0x7fffffff))
	case "srand":
		need(1)
		m.rng = uint64(iv(0))*2862933555777941757 + 3037000493
		return void
	case "sqrt":
		need(1)
		return retF(math.Sqrt(fv(0)))
	case "fabs":
		need(1)
		return retF(math.Abs(fv(0)))
	case "sin":
		need(1)
		return retF(math.Sin(fv(0)))
	case "cos":
		need(1)
		return retF(math.Cos(fv(0)))
	case "tan":
		need(1)
		return retF(math.Tan(fv(0)))
	case "exp":
		need(1)
		return retF(math.Exp(fv(0)))
	case "log":
		need(1)
		return retF(math.Log(fv(0)))
	case "pow":
		need(2)
		return retF(math.Pow(fv(0), fv(1)))
	case "floor":
		need(1)
		return retF(math.Floor(fv(0)))
	case "ceil":
		need(1)
		return retF(math.Ceil(fv(0)))
	case "fmod":
		need(1)
		return retF(math.Mod(fv(0), fv(1)))
	case "isdigit":
		need(1)
		return ret(b2i(iv(0) >= '0' && iv(0) <= '9'))
	case "isalpha":
		need(1)
		c := iv(0)
		return ret(b2i(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'))
	case "isalnum":
		need(1)
		c := iv(0)
		return ret(b2i(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'))
	case "isspace":
		need(1)
		c := iv(0)
		return ret(b2i(c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' || c == '\f'))
	case "isupper":
		need(1)
		return ret(b2i(iv(0) >= 'A' && iv(0) <= 'Z'))
	case "islower":
		need(1)
		return ret(b2i(iv(0) >= 'a' && iv(0) <= 'z'))
	case "ispunct":
		need(1)
		c := iv(0)
		graph := c > ' ' && c < 127
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		return ret(b2i(graph && !alnum))
	case "toupper":
		need(1)
		c := iv(0)
		if c >= 'a' && c <= 'z' {
			c -= 32
		}
		return ret(c)
	case "tolower":
		need(1)
		c := iv(0)
		if c >= 'A' && c <= 'Z' {
			c += 32
		}
		return ret(c)
	}
	m.fail("call to unknown builtin %q", name)
	return value{}
}

func clipBytes(b []byte, n int64) []byte {
	if int64(len(b)) > n {
		return b[:n]
	}
	return b
}

func cmpBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

func parseCInt(s []byte) int64 {
	i := 0
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n') {
		i++
	}
	neg := false
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		neg = s[i] == '-'
		i++
	}
	var v int64
	for i < len(s) && s[i] >= '0' && s[i] <= '9' {
		v = v*10 + int64(s[i]-'0')
		i++
	}
	if neg {
		return -v
	}
	return v
}

func parseCFloat(s []byte) float64 {
	i := 0
	for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n') {
		i++
	}
	start := i
	if i < len(s) && (s[i] == '+' || s[i] == '-') {
		i++
	}
	for i < len(s) && (s[i] >= '0' && s[i] <= '9' || s[i] == '.') {
		i++
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		for i < len(s) && s[i] >= '0' && s[i] <= '9' {
			i++
		}
	}
	var f float64
	if n, err := parseFloatBytes(s[start:i]); err == nil {
		f = n
	}
	return f
}

func parseFloatBytes(b []byte) (float64, error) {
	// Minimal strconv-free parse to keep the dependency surface tiny.
	var mantissa float64
	var exp int
	i := 0
	neg := false
	if i < len(b) && (b[i] == '+' || b[i] == '-') {
		neg = b[i] == '-'
		i++
	}
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		mantissa = mantissa*10 + float64(b[i]-'0')
		i++
	}
	if i < len(b) && b[i] == '.' {
		i++
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			mantissa = mantissa*10 + float64(b[i]-'0')
			exp--
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		eneg := false
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			eneg = b[i] == '-'
			i++
		}
		e := 0
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			e = e*10 + int(b[i]-'0')
			i++
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	f := mantissa * math.Pow(10, float64(exp))
	if neg {
		f = -f
	}
	return f, nil
}
