package ecc

import (
	"bytes"
	"math/rand"
	"testing"
)

func allSchemes() []Scheme {
	return []Scheme{NewRelaxed(), NewSCCDCD(), NewEightCheck(), NewDoubleChipSparing()}
}

func randBytes(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	r.Read(b)
	return b
}

// encode returns a fresh codeword of s for data (length DataSymbols).
func encode(s Scheme, data []byte) []byte {
	cw := make([]byte, s.TotalSymbols())
	copy(cw, data)
	s.EncodeInto(cw)
	return cw
}

// encodeSpared is encode for a sparing codeword with sparedPos remapped.
func encodeSpared(s *DoubleChipSparing, data []byte, sparedPos int) []byte {
	cw := make([]byte, s.TotalSymbols())
	copy(cw, data)
	s.EncodeSparedInto(cw, sparedPos)
	return cw
}

// decodeOne decodes a copy of cw as a one-codeword batch, returning the
// recovered data symbols (raw on a DUE), the repaired-symbol count, and
// the error.
func decodeOne(s Scheme, cw []byte) (data []byte, corrected int, err error) {
	buf := append([]byte(nil), cw...)
	corrected, err = s.DecodeBatchInto(buf, len(buf), 1, s.NewScratch())
	return buf[:s.DataSymbols()], corrected, err
}

// decodeSparedOne is decodeOne through DecodeSparedBatchInto.
func decodeSparedOne(s *DoubleChipSparing, cw []byte, sparedPos int) (data []byte, corrected int, err error) {
	buf := append([]byte(nil), cw...)
	corrected, err = s.DecodeSparedBatchInto(buf, len(buf), 1, sparedPos, s.NewScratch())
	return buf[:s.DataSymbols()], corrected, err
}

func TestSchemeGeometry(t *testing.T) {
	cases := []struct {
		s                  Scheme
		data, total, check int
		detect             int
	}{
		{NewRelaxed(), 16, 18, 2, 1},
		{NewSCCDCD(), 32, 36, 4, 2},
		{NewEightCheck(), 64, 72, 8, 4},
		{NewDoubleChipSparing(), 32, 36, 3, 2},
	}
	for _, c := range cases {
		if c.s.DataSymbols() != c.data || c.s.TotalSymbols() != c.total ||
			c.s.CheckSymbols() != c.check || c.s.GuaranteedDetect() != c.detect {
			t.Errorf("%s: geometry = (%d,%d,%d,detect %d), want (%d,%d,%d,detect %d)",
				c.s.Name(), c.s.DataSymbols(), c.s.TotalSymbols(), c.s.CheckSymbols(), c.s.GuaranteedDetect(),
				c.data, c.total, c.check, c.detect)
		}
	}
}

func TestSchemeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, s := range allSchemes() {
		for trial := 0; trial < 50; trial++ {
			data := randBytes(r, s.DataSymbols())
			got, n, err := decodeOne(s, encode(s, data))
			if err != nil {
				t.Fatalf("%s: clean decode failed: %v", s.Name(), err)
			}
			if n != 0 {
				t.Fatalf("%s: clean decode repaired %d symbols", s.Name(), n)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s: clean round trip corrupted data", s.Name())
			}
		}
	}
}

func TestSchemeCorrectsSingleBadSymbol(t *testing.T) {
	// Every scheme must survive a whole-device (single-symbol) failure at
	// any position: that is the definition of chipkill correct.
	r := rand.New(rand.NewSource(2))
	for _, s := range allSchemes() {
		data := randBytes(r, s.DataSymbols())
		cw := encode(s, data)
		for pos := 0; pos < s.TotalSymbols(); pos++ {
			bad := make([]byte, len(cw))
			copy(bad, cw)
			bad[pos] ^= byte(1 + r.Intn(255))
			got, n, err := decodeOne(s, bad)
			if err != nil {
				t.Fatalf("%s: single bad symbol at %d not corrected: %v", s.Name(), pos, err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("%s: wrong correction at position %d", s.Name(), pos)
			}
			if n != 1 {
				t.Fatalf("%s: bad symbol at %d repaired %d symbols, want 1", s.Name(), pos, n)
			}
		}
	}
}

func TestSCCDCDDetectsDoubleBadSymbol(t *testing.T) {
	// The commercial guarantee: two bad symbols are always detected.
	s := NewSCCDCD()
	r := rand.New(rand.NewSource(3))
	data := randBytes(r, s.DataSymbols())
	cw := encode(s, data)
	for trial := 0; trial < 1000; trial++ {
		bad := make([]byte, len(cw))
		copy(bad, cw)
		perm := r.Perm(s.TotalSymbols())[:2]
		for _, p := range perm {
			bad[p] ^= byte(1 + r.Intn(255))
		}
		if _, _, err := decodeOne(s, bad); err != ErrDetected {
			t.Fatalf("trial %d: double bad symbol not detected (err=%v)", trial, err)
		}
	}
}

func TestDoubleChipSparingDetectsDoubleBadSymbol(t *testing.T) {
	s := NewDoubleChipSparing()
	r := rand.New(rand.NewSource(4))
	data := randBytes(r, 32)
	cw := encode(s, data)
	for trial := 0; trial < 1000; trial++ {
		bad := make([]byte, len(cw))
		copy(bad, cw)
		perm := r.Perm(36)[:2]
		for _, p := range perm {
			bad[p] ^= byte(1 + r.Intn(255))
		}
		if _, _, err := decodeOne(s, bad); err != ErrDetected {
			t.Fatalf("trial %d: simultaneous double bad symbol not detected (err=%v)", trial, err)
		}
	}
}

func TestDoubleChipSparingCorrectsSecondFaultAfterSparing(t *testing.T) {
	// The headline capability: once the first bad device is spared, a
	// second whole-device fault is still correctable.
	s := NewDoubleChipSparing()
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		data := randBytes(r, 32)
		firstBad := r.Intn(32)
		cw := encodeSpared(s, data, firstBad)

		// The dead device now returns garbage AND a second device fails.
		bad := make([]byte, len(cw))
		copy(bad, cw)
		bad[firstBad] = byte(r.Intn(256)) // garbage from the dead device
		secondBad := r.Intn(36)
		for secondBad == firstBad {
			secondBad = r.Intn(36)
		}
		bad[secondBad] ^= byte(1 + r.Intn(255))

		got, _, err := decodeSparedOne(s, bad, firstBad)
		if err != nil {
			t.Fatalf("trial %d: second fault after sparing not corrected: %v", trial, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("trial %d: wrong data after spared decode", trial)
		}
	}
}

func TestDoubleChipSparingSparedRoundTripClean(t *testing.T) {
	s := NewDoubleChipSparing()
	r := rand.New(rand.NewSource(6))
	for pos := 0; pos < 32; pos++ {
		data := randBytes(r, 32)
		cw := encodeSpared(s, data, pos)
		got, n, err := decodeSparedOne(s, cw, pos)
		if err != nil {
			t.Fatalf("spared pos %d: %v", pos, err)
		}
		if n != 0 {
			t.Fatalf("spared pos %d: clean decode repaired %d symbols", pos, n)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("spared pos %d: data mismatch", pos)
		}
	}
}

func TestDoubleChipSparingEncodeSparedNegativeIsPlain(t *testing.T) {
	s := NewDoubleChipSparing()
	data := randBytes(rand.New(rand.NewSource(7)), 32)
	// Poison the spare and check symbols: both forms must overwrite them.
	cw := append(data, 0xAA, 0xAA, 0xAA, 0xAA)
	spared := append([]byte(nil), cw...)
	s.EncodeSparedInto(spared, -1)
	s.EncodeInto(cw)
	if !bytes.Equal(spared, cw) {
		t.Fatal("EncodeSparedInto(-1) differs from EncodeInto")
	}
	if cw[SparePosition] != 0 {
		t.Fatalf("unspared codeword has spare symbol %#x, want 0", cw[SparePosition])
	}
}

func TestDoubleChipSparingPanics(t *testing.T) {
	s := NewDoubleChipSparing()
	for name, f := range map[string]func(){
		"encode wrong len":          func() { s.EncodeInto(make([]byte, 32)) },
		"spare non-data pos":        func() { s.EncodeSparedInto(make([]byte, 36), 33) },
		"decode short buffer":       func() { s.DecodeBatchInto(make([]byte, 18), 36, 1, s.NewScratch()) },
		"decode spare non-data pos": func() { s.DecodeSparedBatchInto(make([]byte, 36), 36, 1, 33, s.NewScratch()) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestRelaxedDetectsSingleAlwaysButNotAlwaysDouble(t *testing.T) {
	// Relaxed mode guarantees only single-symbol detection. Doubles must
	// never come back as the original data, but may miscorrect — the SDC
	// exposure that motivates upgrading faulty pages.
	s := NewRelaxed()
	r := rand.New(rand.NewSource(8))
	data := randBytes(r, 16)
	cw := encode(s, data)
	var miscorrect int
	for trial := 0; trial < 500; trial++ {
		bad := make([]byte, len(cw))
		copy(bad, cw)
		perm := r.Perm(18)[:2]
		for _, p := range perm {
			bad[p] ^= byte(1 + r.Intn(255))
		}
		got, _, err := decodeOne(s, bad)
		if err == nil {
			if bytes.Equal(got, data) {
				t.Fatalf("trial %d: double error decoded to original data", trial)
			}
			miscorrect++
		}
	}
	if miscorrect == 0 {
		t.Fatal("relaxed mode never miscorrected a double error in 500 trials; SDC window should exist")
	}
}

func TestEightCheckCorrectsDoubleBadSymbol(t *testing.T) {
	s := NewEightCheck()
	r := rand.New(rand.NewSource(9))
	data := randBytes(r, 64)
	cw := encode(s, data)
	for trial := 0; trial < 200; trial++ {
		bad := make([]byte, len(cw))
		copy(bad, cw)
		perm := r.Perm(72)[:2]
		for _, p := range perm {
			bad[p] ^= byte(1 + r.Intn(255))
		}
		got, n, err := decodeOne(s, bad)
		if err != nil {
			t.Fatalf("trial %d: double error not corrected by 8-check code: %v", trial, err)
		}
		if n != 2 {
			t.Fatalf("trial %d: repaired %d symbols, want 2", trial, n)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("trial %d: wrong correction", trial)
		}
	}
}

func TestStorageOverheadInvariant(t *testing.T) {
	// The paper's storage argument: every ARCC mode costs exactly the
	// commercial 12.5% overhead — upgrades trade power for reliability,
	// never for capacity.
	for _, s := range allSchemes() {
		if got := StorageOverhead(s); got != 0.125 {
			t.Errorf("%s: storage overhead %v, want 0.125", s.Name(), got)
		}
	}
}
