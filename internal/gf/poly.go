package gf

// Polynomial is a polynomial over GF(2^8), stored with the coefficient of
// x^i at index i. The zero-length slice is the zero polynomial. Functions in
// this file never modify their arguments; PolyTrim returns a prefix of its
// argument, PolyMul a fresh slice.
type Polynomial []Elem

// PolyTrim returns p with trailing zero coefficients removed, so that the
// last element (if any) is the leading, non-zero coefficient.
func PolyTrim(p Polynomial) Polynomial {
	n := len(p)
	for n > 0 && p[n-1] == 0 {
		n--
	}
	return p[:n]
}

// PolyMul returns a * b.
func PolyMul(a, b Polynomial) Polynomial {
	a, b = PolyTrim(a), PolyTrim(b)
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make(Polynomial, len(a)+len(b)-1)
	for i, ca := range a {
		MulAddSlice(out[i:i+len(b)], b, ca)
	}
	return PolyTrim(out)
}

// PolyEval evaluates p at x using Horner's rule.
func PolyEval(p Polynomial, x Elem) Elem {
	row := MulRow(x)
	var acc Elem
	for i := len(p) - 1; i >= 0; i-- {
		acc = row[acc] ^ p[i]
	}
	return acc
}
