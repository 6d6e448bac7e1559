package gf

// This file holds the bulk multiplication kernels of the codec hot path.
// They all run off rows of the full 256x256 multiplication table, so the
// inner loops are single unconditional lookups with no branches on the
// operand values.

// MulRow returns the multiplication-table row of c: MulRow(c)[x] == Mul(c, x)
// for every x. The returned array is shared and must not be modified; callers
// that multiply many values by the same constant (generator coefficients,
// syndrome evaluation points, Chien stepping constants) hold the row pointer
// and index it directly.
func MulRow(c Elem) *[Size]Elem { return &mulTable[c] }

// MulAddSlice adds c * src into dst element-wise: dst[i] ^= c * src[i] for
// every i in src. dst must be at least as long as src. This is the
// multiply-accumulate step of polynomial multiplication and of the Forney
// numerator, fused into one pass.
func MulAddSlice(dst, src []byte, c Elem) {
	if c == 0 {
		return
	}
	row := &mulTable[c]
	for i, v := range src {
		dst[i] ^= row[v]
	}
}
