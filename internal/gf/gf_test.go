package gf

import (
	"testing"
	"testing/quick"
)

func TestMulIdentity(t *testing.T) {
	for a := 0; a < Size; a++ {
		if got := Mul(Elem(a), 1); got != Elem(a) {
			t.Fatalf("Mul(%d, 1) = %d, want %d", a, got, a)
		}
		if got := Mul(Elem(a), 0); got != 0 {
			t.Fatalf("Mul(%d, 0) = %d, want 0", a, got)
		}
	}
}

func TestMulAgainstSlowReference(t *testing.T) {
	// Carry-less multiplication reduced by the field polynomial, bit by bit.
	slow := func(a, b byte) byte {
		var p int
		x, y := int(a), int(b)
		for i := 0; i < 8; i++ {
			if y&1 != 0 {
				p ^= x
			}
			y >>= 1
			x <<= 1
			if x&0x100 != 0 {
				x ^= Poly
			}
		}
		return byte(p)
	}
	for a := 0; a < Size; a++ {
		for b := 0; b < Size; b++ {
			if got, want := Mul(Elem(a), Elem(b)), slow(byte(a), byte(b)); got != want {
				t.Fatalf("Mul(%d, %d) = %d, want %d", a, b, got, want)
			}
		}
	}
}

func TestMulCommutativeAssociativeDistributive(t *testing.T) {
	comm := func(a, b Elem) bool { return Mul(a, b) == Mul(b, a) }
	assoc := func(a, b, c Elem) bool { return Mul(Mul(a, b), c) == Mul(a, Mul(b, c)) }
	dist := func(a, b, c Elem) bool { return Mul(a, b^c) == Mul(a, b)^Mul(a, c) }
	for name, f := range map[string]any{"commutative": comm, "associative": assoc, "distributive": dist} {
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestDivInvertsMul(t *testing.T) {
	f := func(a, b Elem) bool {
		if b == 0 {
			return true
		}
		return Div(Mul(a, b), b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInv(t *testing.T) {
	for a := 1; a < Size; a++ {
		if got := Mul(Elem(a), Inv(Elem(a))); got != 1 {
			t.Fatalf("a * Inv(a) = %d for a = %d, want 1", got, a)
		}
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv(0) did not panic")
		}
	}()
	Inv(0)
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div(1, 0) did not panic")
		}
	}()
	Div(1, 0)
}

func TestLogZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Log(0) did not panic")
		}
	}()
	Log(0)
}

func TestExpLogRoundTrip(t *testing.T) {
	for a := 1; a < Size; a++ {
		if got := Exp(Log(Elem(a))); got != Elem(a) {
			t.Fatalf("Exp(Log(%d)) = %d", a, got)
		}
	}
	for i := 0; i < Order; i++ {
		if got := Log(Exp(i)); got != i {
			t.Fatalf("Log(Exp(%d)) = %d", i, got)
		}
	}
}

func TestExpNegativeAndLargeExponents(t *testing.T) {
	if Exp(-1) != Exp(Order-1) {
		t.Fatal("Exp(-1) != Exp(Order-1)")
	}
	if Exp(Order) != Exp(0) {
		t.Fatal("Exp(Order) != Exp(0)")
	}
	if Exp(3*Order+7) != Exp(7) {
		t.Fatal("Exp does not reduce large exponents")
	}
}

func TestPrimitiveElementGeneratesGroup(t *testing.T) {
	seen := make(map[Elem]bool)
	for i := 0; i < Order; i++ {
		seen[Exp(i)] = true
	}
	if len(seen) != Order {
		t.Fatalf("alpha generates %d distinct elements, want %d", len(seen), Order)
	}
}
