package ecc

import (
	"bytes"
	"math/rand"
	"testing"

	"arcc/internal/rs"
)

// burst lays count fresh codewords of s out flat at stride TotalSymbols —
// the shape the memory controller decodes per access — and returns the
// buffer with the data each codeword encodes.
func burst(r *rand.Rand, s Scheme, count int) (buf []byte, data [][]byte) {
	n := s.TotalSymbols()
	buf = make([]byte, count*n)
	data = make([][]byte, count)
	for i := range data {
		data[i] = randBytes(r, s.DataSymbols())
		copy(buf[i*n:], encode(s, data[i]))
	}
	return buf, data
}

// TestDecodeIntoMatchesDecode pins a burst decode on one long-lived
// scratch — DecodeBatchInto over a 13-codeword burst, the path core runs —
// to decoding each codeword alone on a fresh scratch, across clean,
// single-error, and GuaranteedDetect-corrupted codewords: the same data per
// good codeword, raw symbols per uncorrectable one, the same repaired-symbol
// total, and ErrDetected exactly when some codeword was uncorrectable.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	const count = 13
	for _, s := range allSchemes() {
		scr := s.NewScratch()
		n, k := s.TotalSymbols(), s.DataSymbols()
		for trial := 0; trial < 20; trial++ {
			buf, _ := burst(r, s, count)
			for i := 0; i < count; i++ {
				// 0, 1, or GuaranteedDetect corruptions.
				nbad := (trial + i) % 3
				if nbad == 2 {
					nbad = s.GuaranteedDetect()
				}
				for _, pos := range r.Perm(n)[:nbad] {
					buf[i*n+pos] ^= byte(1 + r.Intn(255))
				}
			}
			wantCorrected, wantDetected := 0, false
			want := make([][]byte, count)
			for i := range want {
				data, c, err := decodeOne(s, buf[i*n:(i+1)*n])
				want[i] = data
				wantCorrected += c
				wantDetected = wantDetected || err != nil
			}
			got, err := s.DecodeBatchInto(buf, n, count, scr)
			if got != wantCorrected || (err != nil) != wantDetected || (err != nil && err != ErrDetected) {
				t.Fatalf("%s trial %d: burst (%d, %v), per-codeword (%d, detected=%v)", s.Name(), trial, got, err, wantCorrected, wantDetected)
			}
			for i := range want {
				if !bytes.Equal(buf[i*n:i*n+k], want[i]) {
					t.Fatalf("%s trial %d: codeword %d data differs from its lone decode", s.Name(), trial, i)
				}
			}
		}
	}
}

// TestEncodeIntoMatchesEncode pins EncodeInto on a buffer whose non-data
// symbols are poisoned to the encode of a fresh buffer: every check symbol,
// and the sparing scheme's spare, must be overwritten.
func TestEncodeIntoMatchesEncode(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for _, s := range allSchemes() {
		for trial := 0; trial < 50; trial++ {
			data := randBytes(r, s.DataSymbols())
			want := encode(s, data)
			cw := make([]byte, s.TotalSymbols())
			copy(cw, data)
			for i := s.DataSymbols(); i < len(cw); i++ {
				cw[i] = 0xAA
			}
			s.EncodeInto(cw)
			if !bytes.Equal(cw, want) {
				t.Fatalf("%s: EncodeInto over poisoned symbols %x, fresh encode %x", s.Name(), cw, want)
			}
		}
	}
}

// TestSparedIntoMatchesSpared pins the sparing scheme's spared paths to the
// definition of a spared codeword: EncodeSparedInto must equal the
// underlying (36,33) code's encode of the payload with data[sparedPos]
// moved to the spare and zero at the dead position, and
// DecodeSparedBatchInto must recover the data behind a babbling dead device
// plus, on half the trials, a second fault.
func TestSparedIntoMatchesSpared(t *testing.T) {
	s := NewDoubleChipSparing()
	scr := s.NewScratch()
	code := rs.New(36, 33)
	r := rand.New(rand.NewSource(44))
	for trial := 0; trial < 200; trial++ {
		data := randBytes(r, 32)
		sparedPos := r.Intn(32)
		want := make([]byte, 36)
		copy(want, data)
		want[SparePosition] = data[sparedPos]
		want[sparedPos] = 0
		code.EncodeInto(want)
		cw := encodeSpared(s, data, sparedPos)
		if !bytes.Equal(cw, want) {
			t.Fatal("EncodeSparedInto differs from the spared-payload encode")
		}
		// The dead device babbles, and a second fault may hit elsewhere.
		cw[sparedPos] = byte(r.Intn(256))
		if trial%2 == 0 {
			cw[(sparedPos+1+r.Intn(35))%36] ^= byte(1 + r.Intn(255))
		}
		got, _, err := decodeSparedOne(s, cw, sparedPos)
		if err != nil {
			t.Fatalf("trial %d: spared decode failed: %v", trial, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("trial %d: spared decode did not recover the data", trial)
		}
		// A long-lived scratch decodes the same.
		buf := append([]byte(nil), cw...)
		if _, err := s.DecodeSparedBatchInto(buf, 36, 1, sparedPos, scr); err != nil || !bytes.Equal(buf[:32], data) {
			t.Fatalf("trial %d: reused-scratch spared decode differs (err %v)", trial, err)
		}
	}
}

// TestDecodeIntoAllocationFree pins the scheme-level in-place paths —
// EncodeInto, DecodeBatchInto on a four-codeword burst, and the sparing
// scheme's DecodeSparedBatchInto — to zero heap allocations, clean and with
// a bad device (one bad symbol in every codeword).
func TestDecodeIntoAllocationFree(t *testing.T) {
	r := rand.New(rand.NewSource(45))
	for _, s := range allSchemes() {
		scr := s.NewScratch()
		n := s.TotalSymbols()
		clean, _ := burst(r, s, 4)
		oneErr := append([]byte(nil), clean...)
		for i := 0; i < 4; i++ {
			oneErr[i*n+5] ^= 0x3C
		}
		buf := make([]byte, len(clean))
		for name, in := range map[string][]byte{"clean": clean, "1err": oneErr} {
			f := func() {
				copy(buf, in)
				if _, err := s.DecodeBatchInto(buf, n, 4, scr); err != nil {
					t.Fatal(err)
				}
			}
			f() // warm up
			if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
				t.Errorf("%s/%s: %v allocs/op, want 0", s.Name(), name, allocs)
			}
		}
		enc := func() { s.EncodeInto(buf[:n]) }
		enc()
		if allocs := testing.AllocsPerRun(100, enc); allocs != 0 {
			t.Errorf("%s/EncodeInto: %v allocs/op, want 0", s.Name(), allocs)
		}
	}

	sp := NewDoubleChipSparing()
	scr := sp.NewScratch()
	spared := make([]byte, 4*36)
	for i := 0; i < 4; i++ {
		cw := spared[i*36 : (i+1)*36]
		copy(cw, randBytes(r, 32))
		sp.EncodeSparedInto(cw, 7)
		cw[7] = 0x55 // dead device babbles
		cw[20] ^= 1  // plus a second fault
	}
	buf := make([]byte, len(spared))
	f := func() {
		copy(buf, spared)
		if _, err := sp.DecodeSparedBatchInto(buf, 36, 4, 7, scr); err != nil {
			t.Fatal(err)
		}
	}
	f()
	if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
		t.Errorf("sparing/spared+1err: %v allocs/op, want 0", allocs)
	}
}

// TestDecodeSparedBatchMixedLanes decodes spared bursts whose lanes mix
// clean, corrected and uncorrectable codewords. Good lanes must come back
// with their data at its natural positions — the spare symbol moved back
// over the dead position — and uncorrectable lanes byte-for-byte raw. The
// scalar rs erasure decoder classifies the lanes independently and gives
// each good lane's expected content (a lane hit by many new faults may
// miscorrect; the batch must then agree with the scalar decoder).
func TestDecodeSparedBatchMixedLanes(t *testing.T) {
	s := NewDoubleChipSparing()
	scr := s.NewScratch()
	ref := rs.New(36, 33)
	refScr := ref.NewScratch()
	r := rand.New(rand.NewSource(46))
	const lanes = 12
	var good, bad int
	for trial := 0; trial < 20; trial++ {
		sparedPos := r.Intn(32)
		buf := make([]byte, lanes*36)
		data := make([][]byte, lanes)
		for i := range data {
			data[i] = randBytes(r, 32)
			cw := buf[i*36 : (i+1)*36]
			copy(cw, data[i])
			s.EncodeSparedInto(cw, sparedPos)
			cw[sparedPos] = byte(r.Intn(256)) // the dead device babbles
			switch i % 3 {
			case 1: // one new fault: correctable behind the erasure
				cw[(sparedPos+1+r.Intn(35))%36] ^= byte(1 + r.Intn(255))
			case 2: // many new faults: beyond the code
				for _, p := range r.Perm(36)[:6] {
					cw[p] ^= byte(1 + r.Intn(255))
				}
			}
		}
		raw := append([]byte(nil), buf...)
		wantBad := make([]bool, lanes)
		wantData := make([][]byte, lanes)
		wantCorrected := 0
		for i := range wantBad {
			res, err := ref.DecodeScratch(raw[i*36:(i+1)*36], []int{sparedPos}, 1, refScr)
			if err != nil {
				wantBad[i] = true
				continue
			}
			wantCorrected += len(res.ErrorPositions)
			wantData[i] = append([]byte(nil), res.Corrected[:32]...)
			wantData[i][sparedPos] = res.Corrected[SparePosition]
			if i%3 != 2 && !bytes.Equal(wantData[i], data[i]) {
				t.Fatalf("trial %d: reference decoder lost correctable lane %d", trial, i)
			}
		}

		n, err := s.DecodeSparedBatchInto(buf, 36, lanes, sparedPos, scr)
		if n != wantCorrected {
			t.Fatalf("trial %d: repaired %d symbols, want %d", trial, n, wantCorrected)
		}
		anyBad := false
		for i := 0; i < lanes; i++ {
			lane := buf[i*36 : (i+1)*36]
			if wantBad[i] {
				anyBad = true
				bad++
				if !bytes.Equal(lane, raw[i*36:(i+1)*36]) {
					t.Fatalf("trial %d: uncorrectable lane %d was modified", trial, i)
				}
				continue
			}
			good++
			if !bytes.Equal(lane[:32], wantData[i]) {
				t.Fatalf("trial %d: lane %d data differs from the scalar decode", trial, i)
			}
			if lane[sparedPos] != lane[SparePosition] {
				t.Fatalf("trial %d: lane %d: dead position %#x, spare %#x; want the spare symbol back",
					trial, i, lane[sparedPos], lane[SparePosition])
			}
		}
		if anyBad != (err == ErrDetected) || (err != nil && err != ErrDetected) {
			t.Fatalf("trial %d: err = %v with uncorrectable lanes %v", trial, err, anyBad)
		}
	}
	if good == 0 || bad == 0 {
		t.Fatalf("bursts held %d good and %d uncorrectable lanes; want both", good, bad)
	}
}
