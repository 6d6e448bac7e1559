package gf

// This file holds the bit-sliced, word-parallel kernels of the batch codec
// path. Eight GF(2^8) symbols — one from each of eight independent
// codewords, the "lanes" — are packed little-endian into one uint64, and a
// constant multiplication of all eight lanes runs as a handful of
// shift/mask/XOR word operations with no table lookups and no loop-carried
// memory latency. Package rs builds its batch syndrome sweep on these
// primitives; the per-lane layout (lane l occupies byte l) is part of the
// contract.
//
// Two multiply forms are exposed. XtimeWord multiplies every lane by x
// (alpha = 0x02) directly and is chained for the small alpha powers the
// syndrome recurrences use. MulWord multiplies by an arbitrary constant c
// via its BroadcastRow: bit j of each lane selects whether c*x^j
// contributes to that lane, so the product is the XOR of eight masked
// broadcasts — the bit-sliced decomposition of the GF(2) linearity of
// constant multiplication.

// Lanes is the number of byte lanes packed into one word (a uint64).
const Lanes = 8

const (
	laneLSB uint64 = 0x0101010101010101 // bit 0 of every lane
	laneMSB uint64 = 0x8080808080808080 // bit 7 of every lane
)

// BroadcastWord replicates c into all eight byte lanes of a word.
func BroadcastWord(c Elem) uint64 { return uint64(c) * laneLSB }

// XtimeWord multiplies every lane of v by x (the primitive element 0x02):
// a lane-local left shift, folding the dropped high bit back in as the low
// byte of Poly. No bit crosses a lane boundary.
func XtimeWord(v uint64) uint64 {
	return ((v &^ laneMSB) << 1) ^ (((v & laneMSB) >> 7) * (Poly & 0xFF))
}

// Reduction constants for the fused multi-step xtime kernels: red1..red3
// are x^8, x^9, x^10 reduced mod Poly. red1 = 0x1D < 0x80, so the next two
// are plain doublings with no further reduction.
const (
	red1 = Poly & 0xFF // x^8
	red2 = red1 << 1   // x^9
	red3 = red2 << 1   // x^10
)

const (
	lane6 uint64 = 0x3F3F3F3F3F3F3F3F // low 6 bits of every lane
	lane5 uint64 = 0x1F1F1F1F1F1F1F1F // low 5 bits of every lane
)

// Xtime2Word multiplies every lane of v by x^2 in one fused step: a single
// lane-local shift by 2, with the two overflowing bits folded back in as
// x^8 and x^9. Equivalent to XtimeWord(XtimeWord(v)) but with half the
// dependent latency — the three terms are independent — which matters in
// the syndrome Horner recurrences, where the accumulator update is a
// loop-carried chain.
func Xtime2Word(v uint64) uint64 {
	return ((v & lane6) << 2) ^
		(((v >> 6) & laneLSB) * red1) ^
		(((v >> 7) & laneLSB) * red2)
}

// Xtime3Word multiplies every lane of v by x^3 in one fused step, folding
// the three overflowing bits back in as x^8, x^9, x^10. Equivalent to three
// chained XtimeWords at a third of the dependent latency; this is the S_3
// Horner step of the 4-check-symbol syndrome sweep, the longest chain in
// the batch decoder's clean path.
func Xtime3Word(v uint64) uint64 {
	return ((v & lane5) << 3) ^
		(((v >> 5) & laneLSB) * red1) ^
		(((v >> 6) & laneLSB) * red2) ^
		(((v >> 7) & laneLSB) * red3)
}

// BroadcastRow is the word-parallel analogue of a multiplication-table row:
// entry j holds c * x^j broadcast to all eight lanes, so that multiplying a
// word by c is the XOR over j of entry j masked by bit j of each lane.
type BroadcastRow [8]uint64

// MulRowBatch builds the BroadcastRow of c — the batch counterpart of
// MulRow. Rows for fixed constants (syndrome evaluation points) should be
// built once and reused, exactly as scalar callers hold MulRow pointers.
func MulRowBatch(c Elem) BroadcastRow {
	var r BroadcastRow
	for j := 0; j < 8; j++ {
		r[j] = BroadcastWord(c)
		c = xtime(c)
	}
	return r
}

// xtime is the scalar multiply-by-x used to derive broadcast rows.
func xtime(c Elem) Elem {
	v := uint(c) << 1
	if v&0x100 != 0 {
		v ^= Poly
	}
	return Elem(v)
}

// MulWord multiplies every lane of v by the constant whose BroadcastRow is
// r: MulWord(v, MulRowBatch(c)) has Mul(c, lane) in every lane. The eight
// masked-broadcast terms are independent, so the whole product issues in
// parallel; (m&laneLSB)*0xFF expands each lane's selected bit to a full
// 0xFF/0x00 byte mask without cross-lane carries (lane bytes are 0 or 1).
func MulWord(v uint64, r *BroadcastRow) uint64 {
	p := ((v & laneLSB) * 0xFF) & r[0]
	p ^= ((v >> 1 & laneLSB) * 0xFF) & r[1]
	p ^= ((v >> 2 & laneLSB) * 0xFF) & r[2]
	p ^= ((v >> 3 & laneLSB) * 0xFF) & r[3]
	p ^= ((v >> 4 & laneLSB) * 0xFF) & r[4]
	p ^= ((v >> 5 & laneLSB) * 0xFF) & r[5]
	p ^= ((v >> 6 & laneLSB) * 0xFF) & r[6]
	p ^= ((v >> 7 & laneLSB) * 0xFF) & r[7]
	return p
}

// PackWord packs the first Lanes bytes of b little-endian into a word:
// b[l] lands in lane l. b must hold at least Lanes bytes.
func PackWord(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

// GatherWord packs byte off of each of lanes stride-separated codewords in
// buf into a word: lane l holds buf[l*stride+off]. Lanes beyond lanes are
// zero (the additive identity, inert in every kernel). lanes must be in
// [1, Lanes].
func GatherWord(buf []byte, off, stride, lanes int) uint64 {
	if lanes == Lanes {
		// The hot full-group case: eight independent loads the compiler can
		// schedule freely, no shift chain on the critical path.
		return uint64(buf[off]) |
			uint64(buf[stride+off])<<8 |
			uint64(buf[2*stride+off])<<16 |
			uint64(buf[3*stride+off])<<24 |
			uint64(buf[4*stride+off])<<32 |
			uint64(buf[5*stride+off])<<40 |
			uint64(buf[6*stride+off])<<48 |
			uint64(buf[7*stride+off])<<56
	}
	var v uint64
	for l := lanes - 1; l >= 0; l-- {
		v = v<<8 | uint64(buf[l*stride+off])
	}
	return v
}

// transpose masks: byte positions in the low half of each 2^(k+1)-byte
// block, for the three block sizes of the recursive 8x8 byte transpose.
const (
	tm32 uint64 = 0x00000000FFFFFFFF
	tm16 uint64 = 0x0000FFFF0000FFFF
	tm8  uint64 = 0x00FF00FF00FF00FF
)

// transpose8 transposes an 8x8 byte matrix held as eight row words (byte j
// of w[l] is element [l][j]) in place, using the recursive block-swap
// scheme: swap 4x4 byte blocks between row pairs four apart, then 2x2
// blocks two apart, then single bytes one apart. 36 word ops for all 64
// bytes — far cheaper than eight byte-gathers.
// Fully unrolled on locals so every intermediate stays in a register:
// looping with computed indices costs bounds checks and spills w to memory
// between stages, which showed up as a ~20% slowdown on the syndrome sweep.
func transpose8(w *[8]uint64) {
	a0, a1, a2, a3, a4, a5, a6, a7 := w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7]

	b0 := (a0 & tm32) | (a4 << 32)
	b4 := (a0 >> 32) | (a4 &^ tm32)
	b1 := (a1 & tm32) | (a5 << 32)
	b5 := (a1 >> 32) | (a5 &^ tm32)
	b2 := (a2 & tm32) | (a6 << 32)
	b6 := (a2 >> 32) | (a6 &^ tm32)
	b3 := (a3 & tm32) | (a7 << 32)
	b7 := (a3 >> 32) | (a7 &^ tm32)

	c0 := (b0 & tm16) | ((b2 & tm16) << 16)
	c2 := ((b0 >> 16) & tm16) | (b2 &^ tm16)
	c1 := (b1 & tm16) | ((b3 & tm16) << 16)
	c3 := ((b1 >> 16) & tm16) | (b3 &^ tm16)
	c4 := (b4 & tm16) | ((b6 & tm16) << 16)
	c6 := ((b4 >> 16) & tm16) | (b6 &^ tm16)
	c5 := (b5 & tm16) | ((b7 & tm16) << 16)
	c7 := ((b5 >> 16) & tm16) | (b7 &^ tm16)

	w[0] = (c0 & tm8) | ((c1 & tm8) << 8)
	w[1] = ((c0 >> 8) & tm8) | (c1 &^ tm8)
	w[2] = (c2 & tm8) | ((c3 & tm8) << 8)
	w[3] = ((c2 >> 8) & tm8) | (c3 &^ tm8)
	w[4] = (c4 & tm8) | ((c5 & tm8) << 8)
	w[5] = ((c4 >> 8) & tm8) | (c5 &^ tm8)
	w[6] = (c6 & tm8) | ((c7 & tm8) << 8)
	w[7] = ((c6 >> 8) & tm8) | (c7 &^ tm8)
}

// GatherWords8 gathers eight consecutive symbol positions off..off+7 of
// lanes stride-separated codewords in buf at once: on return w[j] equals
// GatherWord(buf, off+j, stride, lanes) for j in 0..7. Instead of eight
// scattered byte loads per position it performs ONE eight-byte load per
// lane (the positions are contiguous within a codeword) and transposes the
// 8x8 byte block in registers — the main reason the batch syndrome sweep
// beats the scalar decoder on clean reads. Requires off+8 <= codeword
// length so the per-lane loads stay inside each codeword's symbols.
func GatherWords8(buf []byte, off, stride, lanes int, w *[8]uint64) {
	if lanes == Lanes {
		w[0] = PackWord(buf[off:])
		w[1] = PackWord(buf[stride+off:])
		w[2] = PackWord(buf[2*stride+off:])
		w[3] = PackWord(buf[3*stride+off:])
		w[4] = PackWord(buf[4*stride+off:])
		w[5] = PackWord(buf[5*stride+off:])
		w[6] = PackWord(buf[6*stride+off:])
		w[7] = PackWord(buf[7*stride+off:])
	} else {
		for l := 0; l < Lanes; l++ {
			if l < lanes {
				w[l] = PackWord(buf[l*stride+off:])
			} else {
				w[l] = 0
			}
		}
	}
	transpose8(w)
}

// ScatterWord stores lane l of v to buf[l*stride+off] for l in [0, lanes):
// the inverse of GatherWord over the same flat stride-N layout.
func ScatterWord(v uint64, buf []byte, off, stride, lanes int) {
	for l := 0; l < lanes; l++ {
		buf[l*stride+off] = byte(v >> (8 * l))
	}
}
