package rs

import (
	"bytes"
	"math/rand"
	"testing"

	"arcc/internal/gf"
)

// batchCodes are the geometries the batch path is exercised on: the three
// ARCC codeword shapes, the longest code New accepts at the widest
// remainder, and a deliberately odd one (nk outside 2, 4 and 8).
func batchCodes() []*Code {
	return []*Code{New(18, 16), New(36, 32), New(72, 64), New(255, 247), New(20, 15)}
}

// buildBatch returns count random valid codewords, flat at the given
// stride, plus a slice view of each codeword into the flat buffer. Gap
// bytes between codewords are filled with junk to catch kernels that read
// past N.
func buildBatch(r *rand.Rand, c *Code, count, stride int) (flat []byte, cws [][]byte) {
	flat = make([]byte, count*stride+7) // +junk tail beyond the last codeword
	r.Read(flat)
	cws = make([][]byte, count)
	for i := 0; i < count; i++ {
		cw := flat[i*stride : i*stride+c.N()]
		r.Read(cw[:c.K()])
		c.EncodeInto(cw)
		cws[i] = cw
	}
	return flat, cws
}

// corrupt flips nbad distinct random symbols of cw.
func corruptLanes(r *rand.Rand, cw []byte, nbad int) {
	for _, pos := range r.Perm(len(cw))[:nbad] {
		cw[pos] ^= byte(1 + r.Intn(255))
	}
}

// TestSyndromesAndCheckBatchMatchScalar pins the batch decoder's clean
// check to the scalar syndromes: a lane takes the scalar path (its
// remainder is nonzero) iff SyndromesInto is nonzero, for every batch
// count from 0 to 13 — full four-lane groups and short tails — at random
// strides with junk gap bytes. With a zero error bound the scalar path
// reports every dirty lane as bad, so DecodeBatchFlat must list exactly
// the lanes with a nonzero syndrome and leave every lane as it was.
func TestSyndromesAndCheckBatchMatchScalar(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, c := range batchCodes() {
		syn := make([]byte, c.CheckSymbols())
		s := c.NewScratch()
		for count := 0; count <= 13; count++ {
			for trial := 0; trial < 6; trial++ {
				stride := c.N() + r.Intn(5)
				flat, cws := buildBatch(r, c, count, stride)
				// Corrupt some lanes so both clean and dirty lanes appear.
				for i := range cws {
					if r.Intn(3) == 1 {
						corruptLanes(r, cws[i], 1+r.Intn(3))
					}
				}
				var wantBad []int
				var rem [batchLanes]uint64
				for base := 0; base < count; base += batchLanes {
					lanes := min(batchLanes, count-base)
					c.remainders(flat[base*stride:], stride, lanes, &rem)
					for l := 0; l < lanes; l++ {
						dirty := !allZero(c.SyndromesInto(cws[base+l], syn))
						if (rem[l] != 0) != dirty {
							t.Fatalf("(%d,%d) count=%d: lane %d remainder %#x, syndromes %x", c.N(), c.K(), count, base+l, rem[l], syn)
						}
						if dirty {
							wantBad = append(wantBad, base+l)
						}
					}
				}
				before := append([]byte(nil), flat...)
				res := c.DecodeBatchFlat(flat, stride, count, nil, 0, s)
				if res.Corrected != 0 || !equalInts(res.Bad, wantBad) {
					t.Fatalf("(%d,%d) count=%d: detect-only batch %+v, want Bad=%v", c.N(), c.K(), count, res, wantBad)
				}
				if !bytes.Equal(flat, before) {
					t.Fatalf("(%d,%d) count=%d: detect-only batch modified the buffer", c.N(), c.K(), count)
				}
			}
		}
	}
}

// decodeScalarReference applies the per-codeword scalar decoder with the
// batch path's in-place semantics: corrected lanes rewritten, DUE lanes left
// raw and listed.
func decodeScalarReference(c *Code, cws [][]byte, erasures []int, maxErrors int) (BatchResult, [][]byte) {
	var res BatchResult
	out := make([][]byte, len(cws))
	s := c.NewScratch()
	for i, cw := range cws {
		out[i] = append([]byte(nil), cw...)
		r, err := c.DecodeScratch(cw, erasures, maxErrors, s)
		if err != nil {
			res.Bad = append(res.Bad, i)
			continue
		}
		copy(out[i], r.Corrected)
		res.Corrected += len(r.ErrorPositions)
	}
	return res, out
}

// TestDecodeBatchMatchesScalar checks DecodeBatchFlat lane by lane against
// the scalar decoder, with no erasure and with one erasure shared by the
// batch, at the largest error bound the distance limit allows.
func TestDecodeBatchMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, c := range batchCodes() {
		for _, numErase := range []int{0, 1} {
			maxFix := (c.CheckSymbols() - numErase) / 2
			for _, count := range []int{0, 1, 2, 8, 9, 13, 20} {
				for trial := 0; trial < 8; trial++ {
					stride := c.N() + r.Intn(4)
					flat, cws := buildBatch(r, c, count, stride)
					erasures := r.Perm(c.N())[:numErase]
					// Random per-lane corruption: clean, correctable, and
					// overwhelming patterns mixed in one batch; with an
					// erasure, its position is garbage in about half the
					// lanes.
					for i := range cws {
						switch r.Intn(4) {
						case 1:
							corruptLanes(r, cws[i], 1+r.Intn(max(maxFix, 1)))
						case 2:
							corruptLanes(r, cws[i], maxFix+1+r.Intn(3))
						}
						for _, p := range erasures {
							if r.Intn(2) == 0 {
								cws[i][p] = byte(r.Intn(256))
							}
						}
					}
					snapshot := make([][]byte, count)
					for i, cw := range cws {
						snapshot[i] = append([]byte(nil), cw...)
					}
					wantRes, wantOut := decodeScalarReference(c, snapshot, erasures, maxFix)

					s := c.NewScratch()
					gotRes := c.DecodeBatchFlat(flat, stride, count, erasures, maxFix, s)
					if gotRes.Corrected != wantRes.Corrected || !equalInts(gotRes.Bad, wantRes.Bad) {
						t.Fatalf("(%d,%d) DecodeBatchFlat count=%d erasures=%v: result %+v, want %+v", c.N(), c.K(), count, erasures, gotRes, wantRes)
					}
					for i, cw := range cws {
						if !bytes.Equal(cw, wantOut[i]) {
							t.Fatalf("(%d,%d) DecodeBatchFlat count=%d erasures=%v: codeword %d content mismatch", c.N(), c.K(), count, erasures, i)
						}
					}
				}
			}
		}
	}
}

// checkBatchAgainstScalar lays cws out flat at the given stride, with junk
// in the gaps, decodes them with DecodeBatchFlat (no erasures) and fails t
// unless the result and every lane match the scalar reference.
func checkBatchAgainstScalar(t *testing.T, c *Code, cws [][]byte, stride, maxErrors int, s *Scratch) {
	t.Helper()
	flat := bytes.Repeat([]byte{0xC3}, len(cws)*stride)
	for i, cw := range cws {
		copy(flat[i*stride:], cw)
	}
	wantRes, wantOut := decodeScalarReference(c, cws, nil, maxErrors)
	gotRes := c.DecodeBatchFlat(flat, stride, len(cws), nil, maxErrors, s)
	if gotRes.Corrected != wantRes.Corrected || !equalInts(gotRes.Bad, wantRes.Bad) {
		t.Fatalf("(%d,%d) maxErrors=%d: batch result %+v, want %+v", c.N(), c.K(), maxErrors, gotRes, wantRes)
	}
	for i := range cws {
		if !bytes.Equal(flat[i*stride:i*stride+c.N()], wantOut[i]) {
			t.Fatalf("(%d,%d) maxErrors=%d: lane %d content mismatch", c.N(), c.K(), maxErrors, i)
		}
	}
}

// TestDecodeBatchOneSymbolMatchesScalar pins the batch decoder's
// one-symbol correction (correctOne) to the scalar decoder: every single
// error (position p, magnitude 1..255), random patterns of 2 to t+1
// errors, detect-only lanes, and lanes whose syndromes are those of one
// error at a power >= N, outside the shortened code, which must stay DUEs.
func TestDecodeBatchOneSymbolMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for _, c := range append(batchCodes(), New(36, 33)) {
		n, nk, tc := c.N(), c.CheckSymbols(), c.CheckSymbols()/2
		s := c.NewScratch()
		stride := n + 1
		valid := func() []byte {
			cw := make([]byte, n)
			r.Read(cw[:c.K()])
			c.EncodeInto(cw)
			return cw
		}
		// One batch per position: 255 lanes, one per magnitude, so full
		// four-lane groups and a three-lane tail both see every case. At
		// the full bound too every lane must come back as it was encoded;
		// with a zero bound (checked on a group and a tail) every lane is
		// a DUE.
		for p := 0; p < n; p++ {
			orig := make([][]byte, 255)
			cws := make([][]byte, len(orig))
			for e := range cws {
				orig[e] = valid()
				cws[e] = append([]byte(nil), orig[e]...)
				cws[e][p] ^= byte(e + 1)
			}
			checkBatchAgainstScalar(t, c, cws, stride, 1, s)
			checkBatchAgainstScalar(t, c, cws[:7], stride, 0, s)
			flat := bytes.Join(cws, nil)
			res := c.DecodeBatchFlat(flat, n, len(cws), nil, tc, s)
			if res.Corrected != len(cws) || !res.OK() || !bytes.Equal(flat, bytes.Join(orig, nil)) {
				t.Fatalf("(%d,%d) position %d maxErrors=%d: single errors decoded to %+v", n, c.K(), p, tc, res)
			}
		}
		for trial := 0; trial < 50; trial++ {
			cws := make([][]byte, 4+r.Intn(6))
			for i := range cws {
				cws[i] = valid()
				corruptLanes(r, cws[i], 2+r.Intn(tc))
			}
			for maxErrors := 0; maxErrors <= tc; maxErrors++ {
				checkBatchAgainstScalar(t, c, cws, stride, maxErrors, s)
			}
		}
		// Zero data whose check symbols are x^j mod g for j >= N: the
		// (255, 255-(N-K)) code has the same generator, and a unit data
		// symbol at its position 254-j encodes to exactly that remainder.
		wide := New(gf.Order, gf.Order-nk)
		var cws [][]byte
		for j := n; j < gf.Order; j++ {
			w := make([]byte, gf.Order)
			w[gf.Order-1-j] = 1
			wide.EncodeInto(w)
			cw := make([]byte, n)
			copy(cw[c.K():], w[wide.K():])
			cws = append(cws, cw)
		}
		if len(cws) == 0 {
			continue
		}
		for maxErrors := 0; maxErrors <= tc; maxErrors++ {
			checkBatchAgainstScalar(t, c, cws, stride, maxErrors, s)
			res := c.DecodeBatchFlat(bytes.Join(cws, nil), n, len(cws), nil, maxErrors, s)
			if res.Corrected != 0 || len(res.Bad) != len(cws) {
				t.Fatalf("(%d,%d) maxErrors=%d: errors outside the code decoded to %+v", n, c.K(), maxErrors, res)
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDecodeBatchMaxErrorsZero pins the detect-only policy through the
// batch path: any dirty lane is a DUE.
func TestDecodeBatchMaxErrorsZero(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	c := New(36, 32)
	flat, cws := buildBatch(r, c, 8, c.N())
	corruptLanes(r, cws[5], 1)
	s := c.NewScratch()
	res := c.DecodeBatchFlat(flat, c.N(), 8, nil, 0, s)
	if res.Corrected != 0 || !equalInts(res.Bad, []int{5}) {
		t.Fatalf("detect-only batch: %+v, want Bad=[5]", res)
	}
}

// TestDecodeErasuresFastPathMatchesErrors pins the pure-erasure fast path
// (skipped Chien search) against the errors+erasures general path and
// against re-encoding.
func TestDecodeErasuresFastPathMatchesErrors(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	c := New(36, 32)
	s := c.NewScratch()
	for trial := 0; trial < 500; trial++ {
		cw := make([]byte, c.N())
		r.Read(cw[:c.K()])
		c.EncodeInto(cw)
		orig := append([]byte(nil), cw...)
		ne := r.Intn(c.CheckSymbols() + 1)
		erasures := r.Perm(c.N())[:ne]
		for _, p := range erasures {
			cw[p] ^= byte(r.Intn(256)) // may be a zero flip: erased-but-right
		}
		res, err := c.DecodeScratch(cw, erasures, 0, s)
		if err != nil {
			t.Fatalf("trial %d: erasure decode failed: %v (erasures %v)", trial, err, erasures)
		}
		if !bytes.Equal(res.Corrected, orig) {
			t.Fatalf("trial %d: erasure decode content mismatch", trial)
		}
		// Positions must be ascending and exactly the flipped symbols.
		for i := 1; i < len(res.ErrorPositions); i++ {
			if res.ErrorPositions[i-1] >= res.ErrorPositions[i] {
				t.Fatalf("trial %d: positions not ascending: %v", trial, res.ErrorPositions)
			}
		}
		for _, p := range res.ErrorPositions {
			if cw[p] == orig[p] {
				t.Fatalf("trial %d: position %d reported but unchanged", trial, p)
			}
		}
	}
}

// TestBatchAllocs pins the zero-allocation contract of the batch decoder,
// clean and dirty, with and without erasures, after a single warm-up call
// (the Bad buffer may grow once).
func TestBatchAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	c := New(36, 32)
	const count = 13
	clean, _ := buildBatch(r, c, count, c.N())
	dirty := append([]byte(nil), clean...)
	corruptLanes(r, dirty[3*c.N():4*c.N()], 2)
	corruptLanes(r, dirty[9*c.N():10*c.N()], c.CheckSymbols()+2) // a DUE lane
	// With position 7 erased: garbage there in every lane, one more error
	// in lane 4, and an uncorrectable lane 11.
	erased := append([]byte(nil), clean...)
	for i := 0; i < count; i++ {
		erased[i*c.N()+7] ^= 0x5A
	}
	erased[4*c.N()+20] ^= 0x11
	corruptLanes(r, erased[11*c.N():12*c.N()], c.CheckSymbols())
	erasures := []int{7}
	flat := make([]byte, len(clean))
	s := c.NewScratch()

	copy(flat, dirty)
	c.DecodeBatchFlat(flat, c.N(), count, nil, c.CheckSymbols()/2, s) // warm up s.bad

	cases := []struct {
		name      string
		input     []byte
		erasures  []int
		maxErrors int
	}{
		{"DecodeBatchFlat/clean", clean, nil, c.CheckSymbols() / 2},
		{"DecodeBatchFlat/dirty", dirty, nil, c.CheckSymbols() / 2},
		{"DecodeBatchFlat/dirty+erasure", erased, erasures, 1},
	}
	for _, tc := range cases {
		fn := func() {
			copy(flat, tc.input)
			c.DecodeBatchFlat(flat, c.N(), count, tc.erasures, tc.maxErrors, s)
		}
		if n := testing.AllocsPerRun(50, fn); n != 0 {
			t.Errorf("%s allocates %v per run, want 0", tc.name, n)
		}
	}
}

// TestDecodeBatchRejectsBadArgsOnCleanBatch pins that the error bound and
// the erasure list are validated on every call: an all-clean batch never
// reaches the scalar decoder, and must still reject what a dirty batch
// would.
func TestDecodeBatchRejectsBadArgsOnCleanBatch(t *testing.T) {
	c := New(36, 32)
	flat, _ := buildBatch(rand.New(rand.NewSource(7)), c, 4, c.N())
	s := c.NewScratch()
	for _, tc := range []struct {
		erasures  []int
		maxErrors int
	}{
		{nil, -1}, {nil, 3}, {[]int{1}, 2}, {[]int{36}, 1}, {[]int{-1}, 0}, {[]int{2, 2}, 0}, {[]int{0, 1, 2, 3, 4}, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("erasures %v, maxErrors %d: clean batch accepted", tc.erasures, tc.maxErrors)
				}
			}()
			c.DecodeBatchFlat(flat, c.N(), 4, tc.erasures, tc.maxErrors, s)
		}()
	}
}

// FuzzDecodeBatchEquivalence feeds arbitrary bytes as a batch buffer and
// cross-checks the batch decoder against the scalar decoder lane by lane,
// with no erasure or with one erased position shared by the batch.
func FuzzDecodeBatchEquivalence(f *testing.F) {
	f.Add([]byte{0}, uint8(3), uint8(2), uint8(36))
	f.Add(bytes.Repeat([]byte{0xA5}, 200), uint8(9), uint8(1), uint8(5))
	f.Add(bytes.Repeat([]byte{7}, 500), uint8(16), uint8(2), uint8(31))
	c := New(36, 32)
	f.Fuzz(func(t *testing.T, raw []byte, countIn, maxErrIn, erasureIn uint8) {
		count := int(countIn) % 17
		// erasureIn selects one erased position, or none when it maps to N.
		var erasures []int
		if p := int(erasureIn) % (c.N() + 1); p < c.N() {
			erasures = []int{p}
		}
		maxErrors := int(maxErrIn) % ((c.CheckSymbols()-len(erasures))/2 + 1)
		need := count * c.N()
		flat := make([]byte, need)
		copy(flat, raw)
		// Re-encode alternating lanes so clean lanes are represented even
		// in random fuzz input.
		for i := 0; i < count; i += 2 {
			c.EncodeInto(flat[i*c.N() : (i+1)*c.N()])
		}
		cws := make([][]byte, count)
		for i := range cws {
			cws[i] = append([]byte(nil), flat[i*c.N():(i+1)*c.N()]...)
		}
		wantRes, wantOut := decodeScalarReference(c, cws, erasures, maxErrors)
		s := c.NewScratch()
		gotRes := c.DecodeBatchFlat(flat, c.N(), count, erasures, maxErrors, s)
		if gotRes.Corrected != wantRes.Corrected || !equalInts(gotRes.Bad, wantRes.Bad) {
			t.Fatalf("batch result %+v, want %+v (erasures %v, maxErrors %d)", gotRes, wantRes, erasures, maxErrors)
		}
		for i := 0; i < count; i++ {
			if !bytes.Equal(flat[i*c.N():(i+1)*c.N()], wantOut[i]) {
				t.Fatalf("lane %d content mismatch (erasures %v, maxErrors %d)", i, erasures, maxErrors)
			}
		}
	})
}

// nearCodewordCodes are the ARCC codeword geometries: relaxed (18,16),
// upgraded SCCDCD (36,32), double chip sparing's (36,33) and the
// eight-check (72,64).
var nearCodewordCodes = []*Code{New(18, 16), New(36, 32), New(36, 33), New(72, 64)}

// FuzzDecodeBatchNearCodeword cross-checks the batch decoder against the
// scalar decoder on lanes within a few symbols of a codeword, where random
// bytes almost never land: the fuzz data fills and encodes the lanes of
// each ARCC geometry, then flips 1 to t+1 symbols per lane at fuzz-chosen
// positions with fuzz-chosen magnitudes.
func FuzzDecodeBatchNearCodeword(f *testing.F) {
	f.Add([]byte{1, 2, 3}, uint8(4), uint8(1))
	f.Add(bytes.Repeat([]byte{0x5A, 0x11, 0xF0}, 40), uint8(9), uint8(2))
	f.Add([]byte{0, 0, 0, 0, 0xFF}, uint8(1), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, countIn, maxErrIn uint8) {
		if len(raw) == 0 {
			return
		}
		i := 0
		next := func() byte {
			b := raw[i%len(raw)]
			i++
			return b
		}
		count := 1 + int(countIn)%9
		for _, c := range nearCodewordCodes {
			tc := c.CheckSymbols() / 2
			cws := make([][]byte, count)
			for l := range cws {
				cw := make([]byte, c.N())
				for j := range cw[:c.K()] {
					cw[j] = next()
				}
				c.EncodeInto(cw)
				for flips := 1 + int(next())%(tc+1); flips > 0; flips-- {
					cw[int(next())%c.N()] ^= 1 + next()%255
				}
				cws[l] = cw
			}
			maxErrors := int(maxErrIn) % (tc + 1)
			checkBatchAgainstScalar(t, c, cws, c.N()+int(countIn)%3, maxErrors, c.NewScratch())
		}
	})
}
