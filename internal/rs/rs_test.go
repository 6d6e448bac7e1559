package rs

import (
	"bytes"
	"math/rand"
	"testing"

	"arcc/internal/gf"
)

// codesUnderTest returns the two code geometries the ARCC evaluation uses
// plus a small code for exhaustive checks.
func codesUnderTest() []*Code {
	return []*Code{
		New(18, 16), // relaxed: 2 check symbols
		New(36, 32), // upgraded / commercial SCCDCD: 4 check symbols
		New(10, 4),  // 6 check symbols, corrects 3: stress decoder paths
	}
}

func randData(r *rand.Rand, k int) []byte {
	d := make([]byte, k)
	r.Read(d)
	return d
}

// encode returns a fresh codeword for data (length K): data followed by
// its check symbols.
func encode(c *Code, data []byte) []byte {
	cw := make([]byte, c.N())
	copy(cw, data)
	c.EncodeInto(cw)
	return cw
}

// decodeOne runs the scalar decoder the batch path falls back to on a fresh
// Scratch, so the Result stays valid after the call.
func decodeOne(c *Code, cw []byte, erasures []int, maxErrors int) (Result, error) {
	return c.DecodeScratch(cw, erasures, maxErrors, c.NewScratch())
}

func TestNewPanicsOnBadParams(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{0, 0}, {10, 10}, {10, 12}, {256, 8}, {5, 0}, {5, -1}, {255, 223}, {20, 11}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d, %d) did not panic", tc.n, tc.k)
				}
			}()
			New(tc.n, tc.k)
		}()
	}
}

func TestCodeAccessors(t *testing.T) {
	c := New(36, 32)
	if c.N() != 36 || c.K() != 32 || c.CheckSymbols() != 4 {
		t.Fatalf("accessors: N=%d K=%d check=%d", c.N(), c.K(), c.CheckSymbols())
	}
}

func TestEncodeIsSystematic(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, c := range codesUnderTest() {
		data := randData(r, c.K())
		cw := make([]byte, c.N())
		copy(cw, data)
		// Poison the check-symbol region to prove EncodeInto overwrites it.
		for i := c.K(); i < c.N(); i++ {
			cw[i] = 0xAA
		}
		c.EncodeInto(cw)
		if !bytes.Equal(cw[:c.K()], data) {
			t.Fatalf("(%d,%d): codeword does not begin with data", c.N(), c.K())
		}
		if !allZero(c.SyndromesInto(cw, make([]byte, c.CheckSymbols()))) {
			t.Fatalf("(%d,%d): fresh codeword fails syndrome check", c.N(), c.K())
		}
	}
}

func TestEncodeLinear(t *testing.T) {
	// The code is linear: encode(a) XOR encode(b) == encode(a XOR b).
	r := rand.New(rand.NewSource(2))
	for _, c := range codesUnderTest() {
		a, b := randData(r, c.K()), randData(r, c.K())
		sum := make([]byte, c.K())
		for i := range sum {
			sum[i] = a[i] ^ b[i]
		}
		cwa, cwb, cws := encode(c, a), encode(c, b), encode(c, sum)
		for i := range cws {
			if cwa[i]^cwb[i] != cws[i] {
				t.Fatalf("(%d,%d): linearity violated at symbol %d", c.N(), c.K(), i)
			}
		}
	}
}

func TestDecodeCleanCodeword(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, c := range codesUnderTest() {
		cw := encode(c, randData(r, c.K()))
		res, err := decodeOne(c, cw, nil, c.CheckSymbols()/2)
		if err != nil {
			t.Fatalf("(%d,%d): decode of clean codeword failed: %v", c.N(), c.K(), err)
		}
		if !bytes.Equal(res.Corrected, cw) {
			t.Fatalf("(%d,%d): clean decode altered codeword", c.N(), c.K())
		}
		if len(res.ErrorPositions) != 0 {
			t.Fatalf("(%d,%d): clean decode reported errors at %v", c.N(), c.K(), res.ErrorPositions)
		}
	}
}

func TestDecodeCorrectsSingleErrorEveryPositionEveryValue(t *testing.T) {
	c := New(18, 16)
	r := rand.New(rand.NewSource(4))
	cw := encode(c, randData(r, c.K()))
	for pos := 0; pos < c.N(); pos++ {
		for _, delta := range []byte{1, 0x80, 0xFF, 0x5A} {
			bad := make([]byte, len(cw))
			copy(bad, cw)
			bad[pos] ^= delta
			res, err := decodeOne(c, bad, nil, c.CheckSymbols()/2)
			if err != nil {
				t.Fatalf("pos %d delta %#x: %v", pos, delta, err)
			}
			if !bytes.Equal(res.Corrected, cw) {
				t.Fatalf("pos %d delta %#x: wrong correction", pos, delta)
			}
			if len(res.ErrorPositions) != 1 || res.ErrorPositions[0] != pos {
				t.Fatalf("pos %d: reported positions %v", pos, res.ErrorPositions)
			}
		}
	}
}

func TestDecodeCorrectsUpToT(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, c := range codesUnderTest() {
		tMax := c.CheckSymbols() / 2
		for errs := 1; errs <= tMax; errs++ {
			for trial := 0; trial < 200; trial++ {
				cw := encode(c, randData(r, c.K()))
				bad := make([]byte, len(cw))
				copy(bad, cw)
				positions := r.Perm(c.N())[:errs]
				for _, p := range positions {
					bad[p] ^= byte(1 + r.Intn(255))
				}
				res, err := decodeOne(c, bad, nil, c.CheckSymbols()/2)
				if err != nil {
					t.Fatalf("(%d,%d) %d errors: %v", c.N(), c.K(), errs, err)
				}
				if !bytes.Equal(res.Corrected, cw) {
					t.Fatalf("(%d,%d) %d errors: wrong correction", c.N(), c.K(), errs)
				}
				if len(res.ErrorPositions) != errs {
					t.Fatalf("(%d,%d): reported %d corrections, want %d", c.N(), c.K(), len(res.ErrorPositions), errs)
				}
			}
		}
	}
}

func TestDecodeDetectsTPlusOneErrors(t *testing.T) {
	// With 2t check symbols, t+1 errors are beyond correction. For the
	// (36,32) code decoded at full power (t=2), 3 errors may alias, but for
	// a *bounded* decode at 1 error, 2 errors must always be detected:
	// that is the SCCDCD guarantee.
	c := New(36, 32)
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 2000; trial++ {
		cw := encode(c, randData(r, c.K()))
		bad := make([]byte, len(cw))
		copy(bad, cw)
		positions := r.Perm(c.N())[:2]
		for _, p := range positions {
			bad[p] ^= byte(1 + r.Intn(255))
		}
		if _, err := decodeOne(c, bad, nil, 1); err != ErrUncorrectable {
			t.Fatalf("double error decoded under single-error bound: trial %d, err %v", trial, err)
		}
	}
}

func TestRelaxedCodeDoubleErrorMayMiscorrect(t *testing.T) {
	// The relaxed (18,16) code corrects one symbol. A double error either
	// gets detected or miscorrects to a valid-looking codeword — it must
	// never be returned as a *clean* decode with the original data intact.
	// This documents the SDC window ARCC's reliability analysis studies.
	c := New(18, 16)
	r := rand.New(rand.NewSource(7))
	var detected, miscorrected int
	for trial := 0; trial < 2000; trial++ {
		cw := encode(c, randData(r, c.K()))
		bad := make([]byte, len(cw))
		copy(bad, cw)
		positions := r.Perm(c.N())[:2]
		for _, p := range positions {
			bad[p] ^= byte(1 + r.Intn(255))
		}
		res, err := decodeOne(c, bad, nil, c.CheckSymbols()/2)
		switch {
		case err == ErrUncorrectable:
			detected++
		case err == nil && !bytes.Equal(res.Corrected, cw):
			miscorrected++
		case err == nil:
			t.Fatal("double error decoded back to the original codeword")
		}
	}
	if detected == 0 {
		t.Fatal("no double errors detected in 2000 trials")
	}
	if miscorrected == 0 {
		t.Fatal("expected some miscorrections for the 1-symbol-correct code; the SDC window should exist")
	}
}

func TestDecodeBoundedZeroDetectsOnly(t *testing.T) {
	c := New(18, 16)
	r := rand.New(rand.NewSource(8))
	cw := encode(c, randData(r, c.K()))
	bad := make([]byte, len(cw))
	copy(bad, cw)
	bad[3] ^= 0x40
	if _, err := decodeOne(c, bad, nil, 0); err != ErrUncorrectable {
		t.Fatalf("detect-only decode of corrupted word: err = %v, want ErrUncorrectable", err)
	}
	res, err := decodeOne(c, cw, nil, 0)
	if err != nil || !bytes.Equal(res.Corrected, cw) {
		t.Fatalf("detect-only decode of clean word failed: %v", err)
	}
}

func TestDecodeBoundedPanicsOutOfRange(t *testing.T) {
	c := New(18, 16)
	cw := encode(c, make([]byte, 16))
	for _, bound := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("DecodeScratch(bound=%d) did not panic", bound)
				}
			}()
			c.DecodeScratch(cw, nil, bound, c.NewScratch())
		}()
	}
}

func TestDecodeErasures(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, c := range codesUnderTest() {
		nk := c.CheckSymbols()
		for numErase := 1; numErase <= nk; numErase++ {
			for trial := 0; trial < 100; trial++ {
				cw := encode(c, randData(r, c.K()))
				bad := make([]byte, len(cw))
				copy(bad, cw)
				erasures := r.Perm(c.N())[:numErase]
				for _, p := range erasures {
					bad[p] ^= byte(1 + r.Intn(255))
				}
				res, err := decodeOne(c, bad, erasures, 0)
				if err != nil {
					t.Fatalf("(%d,%d) %d erasures: %v", c.N(), c.K(), numErase, err)
				}
				if !bytes.Equal(res.Corrected, cw) {
					t.Fatalf("(%d,%d) %d erasures: wrong reconstruction", c.N(), c.K(), numErase)
				}
			}
		}
	}
}

func TestDecodeErasuresUnchangedPositionsAllowed(t *testing.T) {
	// Erasing positions that are actually intact must still succeed: a
	// failed device may return correct data on some beats.
	c := New(36, 32)
	r := rand.New(rand.NewSource(10))
	cw := encode(c, randData(r, c.K()))
	res, err := decodeOne(c, cw, []int{0, 7, 35}, 0)
	if err != nil || !bytes.Equal(res.Corrected, cw) {
		t.Fatalf("erasing intact positions: err=%v", err)
	}
	if len(res.ErrorPositions) != 0 {
		t.Fatalf("intact erasures reported corrections at %v", res.ErrorPositions)
	}
}

func TestDecodeErrorsErasuresCombined(t *testing.T) {
	// 2 erasures + 1 unknown error within the 6-check-symbol code.
	c := New(10, 4)
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		cw := encode(c, randData(r, c.K()))
		bad := make([]byte, len(cw))
		copy(bad, cw)
		perm := r.Perm(c.N())
		erasures := perm[:2]
		errPos := perm[2]
		for _, p := range erasures {
			bad[p] ^= byte(1 + r.Intn(255))
		}
		bad[errPos] ^= byte(1 + r.Intn(255))
		res, err := decodeOne(c, bad, erasures, 1)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !bytes.Equal(res.Corrected, cw) {
			t.Fatalf("trial %d: wrong combined correction", trial)
		}
	}
}

func TestDecodeErasuresTooMany(t *testing.T) {
	c := New(18, 16)
	cw := encode(c, make([]byte, 16))
	if _, err := decodeOne(c, cw, []int{0, 1, 2}, 0); err != ErrUncorrectable {
		t.Fatalf("3 erasures on 2-check code: err = %v, want ErrUncorrectable", err)
	}
}

func TestDecodeErasuresPanicsOnBadPositions(t *testing.T) {
	c := New(18, 16)
	cw := encode(c, make([]byte, 16))
	for _, bad := range [][]int{{-1}, {18}, {3, 3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("DecodeScratch(%v) did not panic", bad)
				}
			}()
			decodeOne(c, cw, bad, 0)
		}()
	}
}

func TestDecodeDoesNotModifyInput(t *testing.T) {
	c := New(18, 16)
	r := rand.New(rand.NewSource(12))
	cw := encode(c, randData(r, c.K()))
	bad := make([]byte, len(cw))
	copy(bad, cw)
	bad[5] ^= 0x11
	snapshot := make([]byte, len(bad))
	copy(snapshot, bad)
	if _, err := decodeOne(c, bad, nil, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeOne(c, bad, []int{5}, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bad, snapshot) {
		t.Fatal("a scalar decode modified its input")
	}
}

// referenceEncode is the definitional systematic encoder, independent of
// EncodeInto's LFSR: the check symbols are the remainder of
// data(x)*x^(N-K) divided by the generator (x-alpha^0)...(x-alpha^(N-K-1)),
// with data[0] the highest-power coefficient, found by schoolbook long
// division.
func referenceEncode(c *Code, data []byte) []byte {
	nk := c.CheckSymbols()
	gen := gf.Polynomial{1} // lowest power first
	for i := 0; i < nk; i++ {
		gen = gf.PolyMul(gen, gf.Polynomial{gf.Exp(i), 1})
	}
	// rem holds the dividend highest power first: data then nk zeros.
	rem := make([]byte, c.N())
	copy(rem, data)
	for i := 0; i < c.K(); i++ {
		q := rem[i] // gen is monic: the quotient term is the leading coefficient
		for j := 0; j <= nk; j++ {
			rem[i+j] ^= gf.Mul(q, gen[nk-j])
		}
	}
	cw := make([]byte, c.N())
	copy(cw, data)
	copy(cw[c.K():], rem[c.K():])
	return cw
}

// TestEncodeIntoMatchesEncode pins EncodeInto to the definitional encoder,
// on a buffer whose check-symbol region is poisoned first.
func TestEncodeIntoMatchesEncode(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, c := range codesUnderTest() {
		for trial := 0; trial < 20; trial++ {
			data := randData(r, c.K())
			want := referenceEncode(c, data)
			cw := make([]byte, c.N())
			copy(cw, data)
			for i := c.K(); i < c.N(); i++ {
				cw[i] = 0xAA
			}
			c.EncodeInto(cw)
			if !bytes.Equal(cw, want) {
				t.Fatalf("(%d,%d): EncodeInto %x, definitional encode %x", c.N(), c.K(), cw, want)
			}
		}
	}
}

// byteLFSREncode is the byte-at-a-time systematic encoder the packed-word
// remainder replaced: a remainder array shifted one symbol per data
// symbol, with one multiplication-row lookup per generator tap.
func byteLFSREncode(c *Code, cw []byte) {
	nk := c.CheckSymbols()
	gen := gf.Polynomial{1}
	for i := 0; i < nk; i++ {
		gen = gf.PolyMul(gen, gf.Polynomial{gf.Exp(i), 1})
	}
	rem := make([]byte, nk)
	for i := 0; i < c.K(); i++ {
		factor := cw[i] ^ rem[0]
		copy(rem, rem[1:])
		rem[nk-1] = 0
		for j := range rem {
			rem[j] ^= gf.MulRow(gen[nk-1-j])[factor]
		}
	}
	copy(cw[c.K():], rem)
}

// TestEncodeIntoMatchesByteLFSR pins the packed-word encoder to the
// byte-at-a-time LFSR byte for byte, on every batch geometry plus the
// sparing code's (36, 33), with the check region poisoned first.
func TestEncodeIntoMatchesByteLFSR(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for _, c := range append(batchCodes(), New(36, 33)) {
		for trial := 0; trial < 50; trial++ {
			got := make([]byte, c.N())
			r.Read(got)
			want := append([]byte(nil), got...)
			byteLFSREncode(c, want)
			c.EncodeInto(got)
			if !bytes.Equal(got, want) {
				t.Fatalf("(%d,%d): EncodeInto %x, byte LFSR %x", c.N(), c.K(), got, want)
			}
		}
	}
}

func TestSyndromesLengthAndPanic(t *testing.T) {
	c := New(18, 16)
	if got := len(c.SyndromesInto(make([]byte, 18), make([]byte, 2))); got != 2 {
		t.Fatalf("syndrome count = %d, want 2", got)
	}
	for name, f := range map[string]func(){
		"codeword": func() { c.SyndromesInto(make([]byte, 17), make([]byte, 2)) },
		"syndrome": func() { c.SyndromesInto(make([]byte, 18), make([]byte, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SyndromesInto with wrong %s length did not panic", name)
				}
			}()
			f()
		}()
	}
}
