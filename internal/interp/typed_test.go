package interp_test

import "testing"

// typedCases pin the C semantics the bytecode resolves from static
// types at lowering: access widths, usual-arithmetic types, and the
// conversions it leaves out. Pointer arithmetic, which stays on the
// generic path, is here as a control. Each expected result was
// recorded before the lowering resolved any type.
var typedCases = []engineCase{
	{name: "int32 wrap", src: `
int main(void) {
	int a = 2147483647, b = -2147483647 - 1, c = 65536, d = 46341;
	printf("%d %d %d %d\n", a + 1, b - 1, c * c, d * d);
	a += 1; b -= 1; c *= 65537;
	printf("%d %d %d\n", a, b, c);
	return 0;
}`, out: "-2147483648 2147483647 0 -2147479015\n-2147483648 2147483647 65536\n"},
	{name: "int min div", src: `
int main(void) {
	int m = -2147483647 - 1, n = -1;
	long lm = -9223372036854775807L - 1, ln = -1;
	printf("%d %d %ld %ld\n", m / n, m % n, lm / ln, lm % ln);
	return 0;
}`, out: "-2147483648 0 -9223372036854775808 0\n"},
	{name: "div by zero", src: `
int main(void) {
	int a = 7, z = 0;
	a = a + 1;
	return a /
		z;
}`, err: "runtime error at test.c:5:11: integer division by zero"},
	{name: "rem by zero", src: `
int main(void) {
	unsigned u = 7, z = 0;
	u %= z;
	return u;
}`, err: "runtime error at test.c:4:2: integer remainder by zero"},
	{name: "unsigned", src: `
int main(void) {
	unsigned u = 0, x = 2147483648u;
	int i = -1, s = -16;
	printf("%d %d %u %u %d\n", u - 1 > 0, i < u, u - 1, x >> 4, s >> 2);
	printf("%u %lu\n", x + x, (unsigned long)i);
	return 0;
}`, out: "1 0 4294967295 134217728 -4\n0 18446744073709551615\n"},
	{name: "narrow stores", src: `
int main(void) {
	char c = 127;
	unsigned char uc = 255;
	short s = 32767;
	unsigned short us = 0;
	c += 1;
	uc++;
	s = s + 1;
	us--;
	printf("%d %d %d %d\n", c, uc, s, us);
	return c;
}`, exit: -128, out: "-128 0 -32768 65535\n"},
	// A compound assignment leaves its left operand's type: two chars
	// add as ints, and the sum is narrowed before it is used.
	{name: "narrow compound value", src: `
int main(void) {
	char c = 100, d = 100;
	unsigned char u = 255, one = 1;
	short s[2];
	unsigned char *p;
	int n = 0;
	s[0] = 20000; s[1] = 20000;
	printf("%d %d\n", c += d, s[0] += s[1]);
	if (u += one)
		n = n + 1;
	u = 255;
	p = &u;
	if (*p += one)
		n = n + 2;
	return n * 1000 + c;
}`, exit: -56, out: "-56 -25536\n"},
	{name: "int and double", src: `
int main(void) {
	int i = 3;
	double d = 2.5;
	float f = 16777217;
	float h = 0.5;
	double r = h + 16777217;
	printf("%f %d %f %f\n", i * d, (int)(i * d), f, r);
	printf("%d %d %f\n", i < d, d == 2.5, i / 2 + d);
	return 0;
}`, out: "7.500000 7 16777216.000000 16777218.000000\n0 1 3.500000\n"},
	{name: "long to int", src: `
int main(void) {
	long big = 3000000000L, one = 4294967297L;
	int i = one, j = (int)big;
	printf("%d %d %ld\n", i, j, big + one);
	return i;
}`, exit: 1, out: "1 -1294967296 7294967297\n"},
	{name: "pointer arithmetic", src: `
int main(void) {
	int a[4];
	int *p, *q;
	a[0] = 10; a[1] = 11; a[2] = 12; a[3] = 13;
	p = a + 1;
	q = &a[3];
	printf("%ld %d %d %d\n", q - p, p < q, *(p + 2), *(q - 3));
	p += 1;
	return *p;
}`, exit: 12, out: "2 1 13 10\n"},
	{name: "20 KB array", src: `
int main(void) {
	char a[20480];
	char *p;
	p = a;
	a[20479] = 3;
	return a[20479] + p[20479] + p[40000];
}`, exit: 6},
	{name: "compound to memory", src: `
int g = 5;
struct S { int f; char c; };
int main(void) {
	int v[2];
	int *p;
	struct S s;
	p = v;
	v[0] = 6; v[1] = 100;
	s.f = 1; s.c = 120;
	g += 10;
	g *= 3;
	*p *= 7;
	p[1] -= 2;
	s.f |= 4;
	s.c += 10;
	printf("%d %d %d %d %d\n", g, v[0], v[1], s.f, s.c);
	return g;
}`, exit: 45, out: "45 42 98 5 -126\n"},
}

func TestTypedPaths(t *testing.T) { runEngineCases(t, typedCases) }
