package rs

import (
	"fmt"

	"arcc/internal/gf"
)

// This file implements the batch decoder: the memory controller decodes
// every access as a batch of independent codewords under the same code (a
// line's four beats, a pair's or quad's four wide codewords), so the batch
// entry point amortises per-codeword overhead and runs the syndrome
// recurrence word-parallel — eight codewords at a time, one byte lane per
// codeword, on the bit-sliced gf kernels (gf.XtimeWord / gf.MulWord). The
// dominant workload is the clean read: a batch whose codewords all have
// zero syndromes completes without touching the scalar decoder at all, and
// only the rare lanes whose syndromes come back nonzero fall back to the
// scalar scratch decoders, one lane at a time.
//
// Layout. The batch is a flat []byte with an explicit stride: codeword i
// occupies buf[i*stride : i*stride+N], stride >= N. The word kernels gather
// lanes straight out of it; the controller's per-access codewords are
// already contiguous in its scratch.
//
// In-place contract. Batch decoding corrects codewords IN PLACE: clean
// lanes are left untouched (no output copy — that is the point), corrected
// lanes are overwritten with the repaired codeword, and lanes with
// detected-uncorrectable patterns keep their raw content and are listed in
// BatchResult.Bad.

// BatchResult reports the outcome of one batch decode.
type BatchResult struct {
	// Corrected is the total number of symbol positions repaired across
	// the batch (the sum of len(ErrorPositions) over the scalar decodes of
	// the dirty lanes; clean lanes contribute zero).
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

// synWords runs the word-parallel syndrome recurrence over up to gf.Lanes
// codewords at buf[0:], stride apart, writing syndrome word i (lane l's
// byte holding S_i of codeword l) into sw[i] and returning the OR of all
// words — zero iff every lane is a consistent codeword. Lanes beyond lanes
// are zero and therefore clean. The alpha^1..alpha^3 Horner steps of the
// 2- and 4-check-symbol geometries are the fused xtime kernels (multiplying
// by 2, 4 and 8 in one shallow step each, so the loop-carried accumulator
// chains stay short); wider codes step through the precomputed broadcast
// rows.
// The symbol sweep loads eight consecutive positions per lane as one word
// and transposes the 8x8 byte block (gf.GatherWords8), so the per-position
// cost is a register read instead of eight scattered byte loads; only the
// n mod 8 tail positions gather byte-wise.
func (c *Code) synWords(buf []byte, stride, lanes int, sw []uint64) uint64 {
	var gw [8]uint64
	switch len(sw) {
	case 2:
		var s0, s1 uint64
		p := 0
		for ; p+8 <= c.n; p += 8 {
			gf.GatherWords8(buf, p, stride, lanes, &gw)
			for _, v := range gw {
				s0 ^= v
				s1 = gf.XtimeWord(s1) ^ v
			}
		}
		for ; p < c.n; p++ {
			v := gf.GatherWord(buf, p, stride, lanes)
			s0 ^= v
			s1 = gf.XtimeWord(s1) ^ v
		}
		sw[0], sw[1] = s0, s1
		return s0 | s1
	case 4:
		var s0, s1, s2, s3 uint64
		p := 0
		for ; p+8 <= c.n; p += 8 {
			gf.GatherWords8(buf, p, stride, lanes, &gw)
			for _, v := range gw {
				s0 ^= v
				s1 = gf.XtimeWord(s1) ^ v
				s2 = gf.Xtime2Word(s2) ^ v
				s3 = gf.Xtime3Word(s3) ^ v
			}
		}
		for ; p < c.n; p++ {
			v := gf.GatherWord(buf, p, stride, lanes)
			s0 ^= v
			s1 = gf.XtimeWord(s1) ^ v
			s2 = gf.Xtime2Word(s2) ^ v
			s3 = gf.Xtime3Word(s3) ^ v
		}
		sw[0], sw[1], sw[2], sw[3] = s0, s1, s2, s3
		return s0 | s1 | s2 | s3
	default:
		for i := range sw {
			sw[i] = 0
		}
		step := func(v uint64) {
			sw[0] ^= v
			for i := 1; i < len(sw); i++ {
				sw[i] = gf.MulWord(sw[i], &c.synBatch[i]) ^ v
			}
		}
		p := 0
		for ; p+8 <= c.n; p += 8 {
			gf.GatherWords8(buf, p, stride, lanes, &gw)
			for _, v := range gw {
				step(v)
			}
		}
		for ; p < c.n; p++ {
			step(gf.GatherWord(buf, p, stride, lanes))
		}
		var dirty uint64
		for _, w := range sw {
			dirty |= w
		}
		return dirty
	}
}

// DecodeBatchFlat decodes count codewords laid out in buf at the given
// stride, in place, each correcting the erased positions plus at most
// maxErrors unknown-position symbol errors. The erasure positions apply to
// every codeword in the batch (the sparing use case: one dead device
// position per rank); with no erasures this is plain bounded decoding.
//
// The all-clean fast path — every lane's syndromes zero, verified
// word-parallel — touches nothing. Lanes with nonzero syndromes fall back
// to the scalar decoder — DecodeScratch without erasures,
// DecodeErrorsErasuresScratch with them — with that decoder's result:
// corrected lanes are rewritten in place, detected-uncorrectable lanes keep
// their raw content and are reported in BatchResult.Bad.
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
	nk := c.n - c.k
	res := BatchResult{Bad: s.bad[:0]}
	var sw [gf.Order]uint64
	for base := 0; base < count; base += gf.Lanes {
		lanes := min(gf.Lanes, count-base)
		dirty := c.synWords(buf[base*stride:], stride, lanes, sw[:nk])
		if dirty == 0 {
			continue
		}
		for l := 0; l < lanes; l++ {
			if byte(dirty>>(8*l)) == 0 {
				continue
			}
			lane := buf[(base+l)*stride : (base+l)*stride+c.n]
			var r Result
			var err error
			if len(erasures) == 0 {
				r, err = c.DecodeScratch(lane, maxErrors, s)
			} else {
				r, err = c.DecodeErrorsErasuresScratch(lane, erasures, maxErrors, s)
			}
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
