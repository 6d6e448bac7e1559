package rs

import (
	"fmt"

	"arcc/internal/gf"
)

// This file implements the batch decoder: the memory controller decodes
// every access as a batch of independent codewords under the same code (a
// line's four beats, a pair's or quad's four wide codewords), so the batch
// entry point amortises per-codeword overhead and checks four codewords at
// once: their remainder recurrences (remStep) run interleaved, so the four
// serial chains of table lookups overlap. The dominant workload is the
// clean read: a batch whose codewords all leave a zero remainder completes
// without touching the scalar decoder at all. Next comes the read of a
// page whose device has failed, one bad symbol per codeword: with no
// erasures and a nonzero error bound, such a lane is corrected straight
// from its remainder (correctOne), exactly as the scalar decoder would.
// Only the remaining lanes with a nonzero remainder — exactly those with a
// nonzero syndrome — fall back to the scalar scratch decoders, one lane at
// a time.
//
// Layout. The batch is a flat []byte with an explicit stride: codeword i
// occupies buf[i*stride : i*stride+N], stride >= N. The check reads lanes
// straight out of it; the controller's per-access codewords are already
// contiguous in its scratch.
//
// In-place contract. Batch decoding corrects codewords IN PLACE: clean
// lanes are left untouched (no output copy — that is the point), corrected
// lanes are overwritten with the repaired codeword, and lanes with
// detected-uncorrectable patterns keep their raw content and are listed in
// BatchResult.Bad.

// batchLanes is the number of codewords whose remainders DecodeBatchFlat
// computes together.
const batchLanes = 4

// BatchResult reports the outcome of one batch decode.
type BatchResult struct {
	// Corrected is the total number of symbol positions repaired across
	// the batch: one per lane the one-symbol correction repaired, plus
	// the sum of len(ErrorPositions) over the scalar decodes of the other
	// dirty lanes; clean lanes contribute zero. The one-symbol lane counts
	// what DecodeScratch would have reported for it.
	Corrected int
	// Bad lists the batch indices of codewords whose error patterns were
	// detected but not correctable, in increasing order; their content is
	// left as read. The slice aliases the Scratch and is valid until its
	// next batch use.
	Bad []int
}

// OK reports whether every codeword in the batch decoded cleanly or was
// fully corrected.
func (r BatchResult) OK() bool { return len(r.Bad) == 0 }

// remainders fills rem[:lanes] with the full-codeword remainders of the
// lanes <= batchLanes codewords at buf[0:], stride apart. A full group runs
// its four recurrences interleaved in one pass; a short tail group runs
// them one lane at a time.
func (c *Code) remainders(buf []byte, stride, lanes int, rem *[batchLanes]uint64) {
	n := c.n
	if lanes < batchLanes {
		for l := 0; l < lanes; l++ {
			rem[l] = c.remainder(buf[l*stride : l*stride+n])
		}
		return
	}
	// One slice indexed at the four lane offsets, and the table in a
	// local: with a slice per lane this loop needs more registers than
	// amd64 has, and a spilled remainder lengthens its lane's dependency
	// chain by a store-load round trip.
	b := buf[:3*stride+n]
	t := &c.encWord
	var r0, r1, r2, r3 uint64
	for p := 0; p < n; p++ {
		r0 = remStep(t, r0, b[p])
		r1 = remStep(t, r1, b[p+stride])
		r2 = remStep(t, r2, b[p+2*stride])
		r3 = remStep(t, r3, b[p+3*stride])
	}
	*rem = [batchLanes]uint64{r0, r1, r2, r3}
}

// DecodeBatchFlat decodes count codewords laid out in buf at the given
// stride, in place, each correcting the erased positions plus at most
// maxErrors unknown-position symbol errors. The erasure positions apply to
// every codeword in the batch (the sparing use case: one dead device
// position per rank); with no erasures this is plain bounded decoding.
//
// The all-clean fast path — every lane's remainder zero, four lanes at a
// time — touches nothing. Lanes with a nonzero remainder, which are exactly
// the lanes with a nonzero syndrome, are dirty. With no erasures and
// maxErrors >= 1, a dirty lane within one symbol of a codeword has that
// symbol corrected in place straight from its remainder (correctOne), the
// result the scalar decoder would return. Every other dirty lane falls
// back to the scalar decoder, DecodeScratch, with that decoder's result:
// corrected lanes are rewritten in place, detected-uncorrectable lanes
// keep their raw content and are reported in BatchResult.Bad.
//
// The bound and the erasure list are validated on every call, clean batch
// or not, against 2*maxErrors + len(erasures) <= N-K; a violation panics.
// Steady-state decoding performs zero heap allocations (Bad grows s's
// buffer once on the first batch that needs it).
func (c *Code) DecodeBatchFlat(buf []byte, stride, count int, erasures []int, maxErrors int, s *Scratch) BatchResult {
	if count < 0 {
		panic(fmt.Sprintf("rs: negative batch count %d", count))
	}
	if stride < c.n {
		panic(fmt.Sprintf("rs: batch stride %d below codeword length %d", stride, c.n))
	}
	if count > 0 && len(buf) < (count-1)*stride+c.n {
		panic(fmt.Sprintf("rs: batch buffer holds %d bytes, want >= %d for %d codewords at stride %d",
			len(buf), (count-1)*stride+c.n, count, stride))
	}
	c.checkDecodeArgs(erasures, maxErrors)
	oneSymbol := len(erasures) == 0 && maxErrors > 0
	res := BatchResult{Bad: s.bad[:0]}
	var rem [batchLanes]uint64
	for base := 0; base < count; base += batchLanes {
		lanes := min(batchLanes, count-base)
		c.remainders(buf[base*stride:], stride, lanes, &rem)
		for l := 0; l < lanes; l++ {
			if rem[l] == 0 {
				continue
			}
			lane := buf[(base+l)*stride : (base+l)*stride+c.n]
			if oneSymbol && c.correctOne(lane, rem[l]) {
				res.Corrected++
				continue
			}
			r, err := c.DecodeScratch(lane, erasures, maxErrors, s)
			if err != nil {
				res.Bad = append(res.Bad, base+l)
				continue
			}
			copy(lane, r.Corrected)
			res.Corrected += len(r.ErrorPositions)
		}
	}
	s.bad = res.Bad[:0]
	return res
}

// correctOne corrects lane in place when it lies within distance one of a
// codeword, given its nonzero packed remainder r, and reports whether it
// did. Since g(alpha^i) = 0, the syndromes follow from r alone:
// S_i = r(alpha^i)*alpha^(-i(N-K)), so with byte j of r the coefficient of
// x^(N-K-1-j), S_0 is the XOR of r's bytes and S_1 = sum_j r_j*alpha^-(j+1).
// One error of magnitude e at position p has S_i = e*X^i with
// X = alpha^(N-1-p), so it can only be e = S_0 at the p that X = S_1/S_0
// names. The syndromes are all of that geometric form iff r equals e times
// the remainder of a unit symbol at p: N-K syndromes determine the
// remainder and back. Then the scalar decoder would find a degree-1
// locator, its one root at p and the magnitude S_0, so correcting here
// returns what it would; every other lane is left to it.
func (c *Code) correctOne(lane []byte, r uint64) bool {
	x := r ^ r>>32
	x ^= x >> 16
	x ^= x >> 8
	s0 := byte(x)
	var s1 byte
	for j, row := range c.s1Rows[:c.n-c.k] {
		s1 ^= row[byte(r>>(8*j))]
	}
	if s0 == 0 || s1 == 0 {
		return false
	}
	logX := gf.Log(s1) - gf.Log(s0)
	if logX < 0 {
		logX += gf.Order
	}
	// X = alpha^(N-1-p): a power of N or more lies outside the shortened
	// code.
	p := c.n - 1 - logX
	if p < 0 {
		return false
	}
	e, w := gf.MulRow(s0), c.posRem[p]
	for j := 0; j < c.n-c.k; j++ {
		if byte(r>>(8*j)) != e[byte(w>>(8*j))] {
			return false
		}
	}
	lane[p] ^= s0
	return true
}
