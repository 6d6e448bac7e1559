// Package gf implements arithmetic over the Galois field GF(2^8).
//
// All symbol-based codes in this repository (Reed–Solomon, the commercial
// chipkill encodings, double chip sparing) operate on 8-bit symbols drawn
// from GF(2^8) with the primitive polynomial x^8 + x^4 + x^3 + x^2 + 1
// (0x11D), the same polynomial used by most memory and storage codes.
//
// Addition and subtraction are both XOR. The package exposes the rest of
// the scalar arithmetic (Mul, Div, Inv, Exp, Log) and the few polynomial
// operations the Reed–Solomon codec in package rs needs (PolyTrim, PolyMul,
// PolyEval; see poly.go).
// Multiplication and division are table driven: a 255-entry exponential
// table and a 256-entry logarithm table are built once at package
// initialisation, and a full 256x256 (64 KB) multiplication table on top
// of them makes Mul a single unconditional lookup. The rows of that table
// are exposed directly (MulRow) together with the multiply-accumulate
// kernel MulAddSlice, which the Reed–Solomon codec — its packed encoder
// table, syndrome computation, Chien search — is written against.
package gf

import "fmt"

// Poly is the primitive polynomial used to construct the field,
// x^8 + x^4 + x^3 + x^2 + 1, written as a bit mask including the x^8 term.
const Poly = 0x11D

// Size is the number of elements in GF(2^8).
const Size = 256

// Order is the order of the multiplicative group, Size - 1.
const Order = 255

// Elem is an element of GF(2^8). The zero value is the additive identity.
type Elem = byte

var (
	expTable [2 * Order]Elem  // expTable[i] = alpha^i, doubled to avoid mod in Mul
	logTable [Size]byte       // logTable[x] = log_alpha(x); logTable[0] is unused
	mulTable [Size][Size]Elem // mulTable[a][b] = a*b; row/col 0 stay zero
)

func init() {
	x := 1
	for i := 0; i < Order; i++ {
		expTable[i] = Elem(x)
		expTable[i+Order] = Elem(x)
		logTable[x] = byte(i)
		x <<= 1
		if x&0x100 != 0 {
			x ^= Poly
		}
	}
	if x != 1 {
		// The generator must cycle back to 1 after exactly Order steps for a
		// primitive polynomial; anything else means Poly is not primitive.
		panic(fmt.Sprintf("gf: %#x is not a primitive polynomial", Poly))
	}
	for a := 1; a < Size; a++ {
		la := int(logTable[a])
		row := &mulTable[a]
		for b := 1; b < Size; b++ {
			row[b] = expTable[la+int(logTable[b])]
		}
	}
}

// Mul returns a * b in GF(2^8): a single unconditional table lookup.
func Mul(a, b Elem) Elem { return mulTable[a][b] }

// Div returns a / b in GF(2^8). Division by zero panics: it indicates a
// decoder bug, not a runtime condition.
func Div(a, b Elem) Elem {
	if b == 0 {
		panic("gf: division by zero")
	}
	if a == 0 {
		return 0
	}
	d := int(logTable[a]) - int(logTable[b])
	if d < 0 {
		d += Order
	}
	return expTable[d]
}

// Inv returns the multiplicative inverse of a. Inv(0) panics.
func Inv(a Elem) Elem {
	if a == 0 {
		panic("gf: inverse of zero")
	}
	return expTable[Order-int(logTable[a])]
}

// Exp returns alpha^i where alpha is the primitive element (0x02). The
// exponent may be any integer; it is reduced modulo Order.
func Exp(i int) Elem {
	i %= Order
	if i < 0 {
		i += Order
	}
	return expTable[i]
}

// Log returns log_alpha(a) in [0, Order). Log(0) panics.
func Log(a Elem) int {
	if a == 0 {
		panic("gf: log of zero")
	}
	return int(logTable[a])
}
