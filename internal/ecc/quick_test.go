package ecc

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// Property-based tests on the scheme invariants, driven by testing/quick.

func TestQuickSchemesRoundTripArbitraryData(t *testing.T) {
	for _, s := range allSchemes() {
		s := s
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			data := randBytes(r, s.DataSymbols())
			got, _, err := decodeOne(s, encode(s, data))
			return err == nil && bytes.Equal(got, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}

func TestQuickSingleSymbolCorruptionAlwaysCorrected(t *testing.T) {
	for _, s := range allSchemes() {
		s := s
		f := func(seed int64, posRaw uint16, delta byte) bool {
			if delta == 0 {
				return true
			}
			r := rand.New(rand.NewSource(seed))
			data := randBytes(r, s.DataSymbols())
			cw := encode(s, data)
			pos := int(posRaw) % s.TotalSymbols()
			cw[pos] ^= delta
			got, _, err := decodeOne(s, cw)
			return err == nil && bytes.Equal(got, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", s.Name(), err)
		}
	}
}

func TestQuickDetectGuaranteeNeverReturnsWrongDataSilently(t *testing.T) {
	// Within each scheme's guaranteed-detect budget, corrupting that many
	// distinct symbols must never yield a clean decode with wrong data.
	for _, s := range allSchemes() {
		s := s
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			data := randBytes(r, s.DataSymbols())
			cw := encode(s, data)
			n := s.GuaranteedDetect()
			for _, p := range r.Perm(s.TotalSymbols())[:n] {
				cw[p] ^= byte(1 + r.Intn(255))
			}
			got, _, err := decodeOne(s, cw)
			if err != nil {
				return true // detected: fine
			}
			return bytes.Equal(got, data) // corrected exactly: also fine
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("%s: silent corruption within detect guarantee: %v", s.Name(), err)
		}
	}
}
