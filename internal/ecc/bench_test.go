package ecc

import (
	"math/rand"
	"testing"
)

// The scheme-level benchmarks time the bursts the functional data path
// (package core) encodes and decodes on every access: four codewords of
// the relaxed (18,16) code, the upgraded SCCDCD (36,32) code, the §5.1
// (72,64) code, and (decode only) the sparing code with a remapped
// position. Every decode iteration restores the burst from a pristine copy
// (the decode corrects in place), so ns/op is per four-codeword burst
// including that copy. Run with -benchmem: the paths must report zero
// allocs/op.

const benchBurst = 4

// benchDecodeBatch times a DecodeBatchInto burst of s; with bad set, the
// same symbol position is corrupted in every codeword (one failed device).
func benchDecodeBatch(b *testing.B, s Scheme, bad bool) {
	r := rand.New(rand.NewSource(1))
	n := s.TotalSymbols()
	pristine, _ := burst(r, s, benchBurst)
	if bad {
		for i := 0; i < benchBurst; i++ {
			pristine[i*n+5] ^= 0x3C
		}
	}
	buf := make([]byte, len(pristine))
	scr := s.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, pristine)
		if _, err := s.DecodeBatchInto(buf, n, benchBurst, scr); err != nil {
			b.Fatal(err)
		}
	}
}

// benchEncodeBurst times EncodeInto over a four-codeword burst of s, the
// write path's per-access encode.
func benchEncodeBurst(b *testing.B, s Scheme) {
	r := rand.New(rand.NewSource(1))
	n := s.TotalSymbols()
	buf, _ := burst(r, s, benchBurst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < benchBurst; j++ {
			s.EncodeInto(buf[j*n : (j+1)*n])
		}
	}
}

func BenchmarkEncodeBurstRelaxed(b *testing.B)    { benchEncodeBurst(b, NewRelaxed()) }
func BenchmarkEncodeBurstSCCDCD(b *testing.B)     { benchEncodeBurst(b, NewSCCDCD()) }
func BenchmarkEncodeBurstEightCheck(b *testing.B) { benchEncodeBurst(b, NewEightCheck()) }

func BenchmarkDecodeBatchIntoRelaxedClean(b *testing.B) { benchDecodeBatch(b, NewRelaxed(), false) }
func BenchmarkDecodeBatchIntoRelaxed1Err(b *testing.B)  { benchDecodeBatch(b, NewRelaxed(), true) }
func BenchmarkDecodeBatchIntoSCCDCDClean(b *testing.B)  { benchDecodeBatch(b, NewSCCDCD(), false) }
func BenchmarkDecodeBatchIntoSCCDCD1Err(b *testing.B)   { benchDecodeBatch(b, NewSCCDCD(), true) }
func BenchmarkDecodeBatchIntoEightCheckClean(b *testing.B) {
	benchDecodeBatch(b, NewEightCheck(), false)
}
func BenchmarkDecodeBatchIntoEightCheck1Err(b *testing.B) {
	benchDecodeBatch(b, NewEightCheck(), true)
}

// BenchmarkDecodeSparedBatchInto1Err measures the sparing scheme's
// erasure+error path: in every codeword of the burst the dead (spared)
// device babbles and one new fault appears.
func BenchmarkDecodeSparedBatchInto1Err(b *testing.B) {
	s := NewDoubleChipSparing()
	r := rand.New(rand.NewSource(2))
	pristine := make([]byte, benchBurst*36)
	for i := 0; i < benchBurst; i++ {
		cw := pristine[i*36 : (i+1)*36]
		r.Read(cw[:32])
		s.EncodeSparedInto(cw, 7)
		cw[7] = 0x55
		cw[20] ^= 0x0F
	}
	buf := make([]byte, len(pristine))
	scr := s.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, pristine)
		if _, err := s.DecodeSparedBatchInto(buf, 36, benchBurst, 7, scr); err != nil {
			b.Fatal(err)
		}
	}
}
