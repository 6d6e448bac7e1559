// Package rs implements a systematic Reed–Solomon codec over GF(2^8).
//
// Chipkill-correct memory systems protect each memory word with a
// symbol-based linear block code whose symbols are spread across DRAM
// devices, one symbol per device, so that a whole-device failure corrupts at
// most one symbol per codeword. This package provides the code itself:
//
//   - Code{N, K} describes an (N, K) code with N-K <= 8 check symbols.
//   - EncodeInto recomputes a codeword's check symbols in place from its K
//     data symbols.
//   - DecodeBatchFlat decodes a flat batch of codewords in place, each
//     correcting up to a caller-chosen bound of unknown-position symbol
//     errors — at most floor((N-K)/2) — plus, optionally, erasures at
//     known positions shared by every codeword (double chip sparing's dead
//     device), and reports the detected-but-uncorrectable codewords.
//
// The configurations used by the ARCC evaluation are (18, 16) for relaxed
// pages (2 check symbols: single symbol correct OR single symbol detect,
// depending on decode policy) and (36, 32) for upgraded pages (4 check
// symbols: single correct + double detect as in commercial SCCDCD), plus
// (36, 33) for double chip sparing and (72, 64) for the eight-check code.
//
// Every code has at most eight check symbols, so the whole division
// remainder by the generator fits one uint64, one byte per check symbol.
// EncodeInto and the clean-read check of DecodeBatchFlat share one
// recurrence over one 256-entry table of such words (remStep): encoding
// runs it over the data symbols, the check over the whole codeword, which
// is consistent iff the remainder is zero. DecodeBatchFlat runs four
// codewords' recurrences interleaved, so an all-clean batch is verified
// without running the scalar decoder at all.
//
// A lane with a nonzero remainder and exactly one bad symbol — every read
// of an ARCC page upgraded after a device failure — is corrected straight
// from that remainder when the call has no erasures and allows at least
// one error: since g(alpha^i) = 0 the syndromes are
// S_i = r(alpha^i)*alpha^(-i(N-K)), one error of magnitude e at position
// p makes them e*X^i with X = alpha^(N-1-p), and they have that geometric
// form with e = S_0 and p < N iff r is S_0 times the remainder of a unit
// symbol at p. This is exact: Berlekamp–Massey finds a degree-1 locator
// iff the syndromes are geometric with S_0 != 0, Chien finds its root iff
// p < N, and Forney's magnitude is S_0, so the scalar decoder would return
// the same bytes, count and verdict. Every other dirty lane — erasures, a
// zero bound, two or more errors, a power X outside the shortened code —
// falls back, one at a time, to the one scalar decoder, DecodeScratch,
// which corrects errors and, when given any, erasures.
//
// The codec is allocation-free: New precomputes the remainder table, the
// per-position unit remainders and S_1 rows of the one-symbol correction,
// multiplication-table rows for the syndrome evaluation points and the
// Chien stepping constants, and a reusable Scratch workspace (NewScratch)
// holds every buffer a decode needs.
package rs

import (
	"errors"
	"fmt"

	"arcc/internal/gf"
)

// ErrUncorrectable reports a codeword whose error pattern exceeds the code's
// correction capability but was still detected (a DUE, in memory terms).
var ErrUncorrectable = errors.New("rs: detected uncorrectable error")

// Code is an (N, K) systematic Reed–Solomon code over GF(2^8). Codewords are
// laid out data-first: positions 0..K-1 hold data symbols, K..N-1 hold check
// symbols. Code values are immutable and safe for concurrent use.
type Code struct {
	n, k int

	// encWord[f] packs the encoder's feedback for factor f: byte j holds
	// f*gen[n-k-1-j], the taps highest coefficient first (see remStep).
	encWord [gf.Size]uint64
	// posRem[p] is the packed full-codeword remainder of a unit symbol at
	// position p, and s1Rows[j] the multiplication row of alpha^-(j+1),
	// which maps byte j of a packed remainder to its term of S_1: the
	// tables of the batch decoder's one-symbol correction (correctOne).
	posRem []uint64
	s1Rows [maxCheckSymbols]*[gf.Size]byte
	// synRows[i] is the multiplication row of alpha^i, the Horner step of
	// syndrome S_i.
	synRows []*[gf.Size]byte
	// stepRows[i] is the multiplication row of alpha^i, used by the
	// incremental Chien search to step term i from one codeword position to
	// the next (indices 0..n-k, the maximum locator degree).
	stepRows []*[gf.Size]byte
	// chienInit[i] = alpha^(-(n-1)*i): term i's multiplier at the Chien
	// search's first query point, the locator inverse of position 0.
	chienInit []byte

	// posRoot[p] = alpha^(n-1-p), the locator of codeword position p;
	// posRootInv[p] is its inverse and posRootRows[p] its multiplication
	// row. Hoisted out of the per-decode loops exactly like the Chien
	// stepping rows: the erasure-locator build, the Chien root recording,
	// and the pure-erasure fast path (which knows its roots without a
	// search) all index these instead of calling Exp/Inv/MulRow.
	posRoot     []byte
	posRootInv  []byte
	posRootRows []*[gf.Size]byte
}

// maxCheckSymbols is the widest code New accepts: N-K check symbols must
// fit the one-word remainder of remStep.
const maxCheckSymbols = 8

// New constructs an (n, k) code. It panics unless 0 < k < n <= 255 and
// n-k <= maxCheckSymbols: code construction is configuration, not runtime
// input.
func New(n, k int) *Code {
	if k <= 0 || n <= k || n > gf.Order || n-k > maxCheckSymbols {
		panic(fmt.Sprintf("rs: invalid code parameters (n=%d, k=%d)", n, k))
	}
	// g(x) = (x - alpha^0)(x - alpha^1)...(x - alpha^(n-k-1))
	gen := gf.Polynomial{1}
	for i := 0; i < n-k; i++ {
		gen = gf.PolyMul(gen, gf.Polynomial{gf.Exp(i), 1})
	}
	c := &Code{n: n, k: k}
	nk := n - k
	c.synRows = make([]*[gf.Size]byte, nk)
	for j := 0; j < nk; j++ {
		row := gf.MulRow(gen[nk-1-j])
		for f := range c.encWord {
			c.encWord[f] |= uint64(row[f]) << (8 * j)
		}
		c.synRows[j] = gf.MulRow(gf.Exp(j))
		c.s1Rows[j] = gf.MulRow(gf.Exp(-(j + 1)))
	}
	// A unit symbol at position n-1 leaves remStep(0, 1); each earlier
	// position feeds one more zero symbol after it.
	c.posRem = make([]uint64, n)
	w := c.encWord[1]
	for p := n - 1; p >= 0; p-- {
		c.posRem[p] = w
		w = remStep(&c.encWord, w, 0)
	}
	c.stepRows = make([]*[gf.Size]byte, nk+1)
	c.chienInit = make([]byte, nk+1)
	for i := 0; i <= nk; i++ {
		c.stepRows[i] = gf.MulRow(gf.Exp(i))
		c.chienInit[i] = gf.Exp(-(n - 1) * i)
	}
	c.posRoot = make([]byte, n)
	c.posRootInv = make([]byte, n)
	c.posRootRows = make([]*[gf.Size]byte, n)
	for p := 0; p < n; p++ {
		x := gf.Exp(n - 1 - p)
		c.posRoot[p] = x
		c.posRootInv[p] = gf.Inv(x)
		c.posRootRows[p] = gf.MulRow(x)
	}
	return c
}

// N returns the codeword length in symbols.
func (c *Code) N() int { return c.n }

// K returns the number of data symbols per codeword.
func (c *Code) K() int { return c.k }

// CheckSymbols returns the number of check symbols per codeword, N-K.
func (c *Code) CheckSymbols() int { return c.n - c.k }

// EncodeInto recomputes the check symbols of cw (length N) in place from its
// first K data symbols. It performs no heap allocations.
func (c *Code) EncodeInto(cw []byte) {
	if len(cw) != c.n {
		panic(fmt.Sprintf("rs: EncodeInto called with %d symbols, want %d", len(cw), c.n))
	}
	r := c.remainder(cw[:c.k])
	for j := range cw[c.k:] {
		cw[c.k+j] = byte(r >> (8 * j))
	}
}

// remStep is one step of the systematic encoder's division by the
// generator g(x), over a code's encWord table t: the remainder r holds the
// N-K remainder coefficients one per byte, the highest in byte 0. Feeding
// symbol sym shifts the remainder up one power and subtracts the factor
// times g, all in one table lookup (g is monic, so the factor is sym plus
// the outgoing coefficient). The table term comes first: with the shift
// first, the compiler spills a remainder in the four-lane loop.
func remStep(t *[gf.Size]uint64, r uint64, sym byte) uint64 {
	return t[sym^byte(r)] ^ r>>8
}

// remainder returns the packed remainder of syms(x)*x^(n-k) mod g(x), with
// syms[0] the highest-power coefficient. Over the K data symbols of a
// codeword this is its check symbols (data-first layout: the codeword read
// as a polynomial is cw[0]*x^(n-1) + ... + cw[n-1]*x^0, with the
// generator's roots alpha^0..alpha^(n-k-1)). Over all N symbols it is zero
// iff every syndrome is: g(0) != 0, so cw(x)*x^(n-k) vanishes mod g iff
// cw(x) does.
func (c *Code) remainder(syms []byte) uint64 {
	var r uint64
	for _, v := range syms {
		r = remStep(&c.encWord, r, v)
	}
	return r
}

// SyndromesInto computes the N-K syndromes of cw into syn, which must have
// length N-K, and returns syn. All zero syndromes mean the codeword is
// consistent (either error-free, or an undetectable error pattern that
// aliases to another valid codeword). It performs no heap allocations.
func (c *Code) SyndromesInto(cw, syn []byte) []byte {
	if len(cw) != c.n {
		panic(fmt.Sprintf("rs: SyndromesInto called with %d symbols, want %d", len(cw), c.n))
	}
	if len(syn) != c.n-c.k {
		panic(fmt.Sprintf("rs: SyndromesInto called with a %d-symbol buffer, want %d", len(syn), c.n-c.k))
	}
	// S_i = cw(alpha^i) with cw[0] the highest-power coefficient: Horner's
	// rule, one row lookup per symbol. All N-K Horner chains run
	// interleaved in a single pass over the codeword, so the chains'
	// serial lookup latencies overlap. S_0 evaluates at alpha^0 = 1 and is
	// a plain XOR of the symbols. The 2- and 4-check-symbol unrollings
	// cover the two geometries the ARCC evaluation decodes on every access.
	switch len(syn) {
	case 2:
		r1 := c.synRows[1]
		var s0, s1 byte
		for _, v := range cw {
			s0 ^= v
			s1 = r1[s1] ^ v
		}
		syn[0], syn[1] = s0, s1
	case 4:
		r1, r2, r3 := c.synRows[1], c.synRows[2], c.synRows[3]
		var s0, s1, s2, s3 byte
		for _, v := range cw {
			s0 ^= v
			s1 = r1[s1] ^ v
			s2 = r2[s2] ^ v
			s3 = r3[s3] ^ v
		}
		syn[0], syn[1], syn[2], syn[3] = s0, s1, s2, s3
	default:
		for i := range syn {
			syn[i] = 0
		}
		for _, v := range cw {
			syn[0] ^= v
			for i := 1; i < len(syn); i++ {
				syn[i] = c.synRows[i][syn[i]] ^ v
			}
		}
	}
	return syn
}
