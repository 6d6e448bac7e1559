package gf

import "testing"

// mulSlow is bitwise carry-less multiplication reduced by Poly — the
// definitional reference the table-driven Mul must match.
func mulSlow(a, b Elem) Elem {
	var acc int
	x, y := int(a), int(b)
	for ; y != 0; y >>= 1 {
		if y&1 != 0 {
			acc ^= x
		}
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	return Elem(acc)
}

// FuzzGFArithmetic throws arbitrary symbol triples at the field axioms the
// Reed-Solomon decoder relies on: Mul agreeing with the definitional
// reference, associativity/commutativity/distributivity, multiplicative
// inverses, and the division/multiplication round trip.
func FuzzGFArithmetic(f *testing.F) {
	f.Add(byte(0), byte(1), byte(2))
	f.Add(byte(0xFF), byte(0x1D), byte(0x80))
	f.Add(byte(1), byte(1), byte(1))
	f.Fuzz(func(t *testing.T, a, b, c byte) {
		if got, want := Mul(a, b), mulSlow(a, b); got != want {
			t.Fatalf("Mul(%#x, %#x) = %#x, want %#x", a, b, got, want)
		}
		if Mul(a, b) != Mul(b, a) {
			t.Fatalf("Mul not commutative at (%#x, %#x)", a, b)
		}
		if Mul(Mul(a, b), c) != Mul(a, Mul(b, c)) {
			t.Fatalf("Mul not associative at (%#x, %#x, %#x)", a, b, c)
		}
		if Mul(a, b^c) != Mul(a, b)^Mul(a, c) {
			t.Fatalf("Mul not distributive at (%#x, %#x, %#x)", a, b, c)
		}
		if b != 0 {
			if Mul(b, Inv(b)) != 1 {
				t.Fatalf("Inv(%#x) is not an inverse", b)
			}
			if Mul(Div(a, b), b) != a {
				t.Fatalf("Div(%#x, %#x) * %#x != %#x", a, b, b, a)
			}
		}
	})
}
