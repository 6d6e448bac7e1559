package rs

import (
	"math/rand"
	"testing"
)

// The benchmarks below cover the codec hot path on the (36, 32) upgraded
// code — the geometry every ARCC decode in the simulator uses. Every
// decoder measured here is allocation-free in steady state.

func benchCodeword(b *testing.B, c *Code, flips ...int) []byte {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	cw := make([]byte, c.N())
	rng.Read(cw[:c.K()])
	c.EncodeInto(cw)
	for i, pos := range flips {
		cw[pos] ^= byte(0x5a + i)
	}
	return cw
}

func BenchmarkEncodeInto(b *testing.B) {
	c := New(36, 32)
	cw := benchCodeword(b, c)
	b.SetBytes(int64(c.N()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.EncodeInto(cw)
	}
}

func BenchmarkSyndromes(b *testing.B) {
	c := New(36, 32)
	cw := benchCodeword(b, c)
	syn := make([]byte, c.CheckSymbols())
	b.SetBytes(int64(c.N()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.SyndromesInto(cw, syn)
	}
}

func BenchmarkChienSearch(b *testing.B) {
	// A degree-2 locator over the (36, 32) code: the search the 2-error
	// decode performs.
	c := New(36, 32)
	cw := benchCodeword(b, c, 3, 17)
	s := c.NewScratch()
	syn := c.SyndromesInto(cw, s.syn)
	sigma := berlekampMasseyInto(syn, s)
	locator := append([]byte(nil), sigma...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		positions, _, _ := c.chienInto(locator, s)
		if len(positions) != 2 {
			b.Fatalf("found %d roots, want 2", len(positions))
		}
	}
}

func benchmarkDecodeScratch(b *testing.B, flips ...int) {
	c := New(36, 32)
	cw := benchCodeword(b, c, flips...)
	s := c.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecodeScratch(cw, nil, c.CheckSymbols()/2, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeScratchClean(b *testing.B) { benchmarkDecodeScratch(b) }
func BenchmarkDecodeScratch1Err(b *testing.B)  { benchmarkDecodeScratch(b, 3) }
func BenchmarkDecodeScratch2Err(b *testing.B)  { benchmarkDecodeScratch(b, 3, 17) }

// The batch benchmarks below iterate b.N in codeword steps (i += lanes per
// batch call), so their ns/op is per CODEWORD — directly comparable to the
// scalar per-codeword benchmarks above. The headline comparison is
// BenchmarkDecodeBatchClean vs BenchmarkDecodeScratchClean: the all-clean
// read that dominates every exhibit and server sweep.

// benchBatch builds a flat batch of `lanes` valid codewords; flips applies
// per-lane corruption keyed by lane index.
func benchBatch(b *testing.B, c *Code, lanes int, flips map[int][]int) []byte {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, lanes*c.N())
	for l := 0; l < lanes; l++ {
		cw := buf[l*c.N() : (l+1)*c.N()]
		rng.Read(cw[:c.K()])
		c.EncodeInto(cw)
		for i, pos := range flips[l] {
			cw[pos] ^= byte(0x5a + i)
		}
	}
	return buf
}

func benchmarkDecodeBatch(b *testing.B, lanes int, flips map[int][]int) {
	c := New(36, 32)
	buf := benchBatch(b, c, lanes, flips)
	pristine := append([]byte(nil), buf...)
	s := c.NewScratch()
	dirty := len(flips) > 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += lanes {
		res := c.DecodeBatchFlat(buf, c.N(), lanes, nil, c.CheckSymbols()/2, s)
		if !res.OK() {
			b.Fatal("batch decode failed")
		}
		if dirty {
			copy(buf, pristine) // restore the corrupted lanes for the next pass
		}
	}
}

func BenchmarkDecodeBatchClean(b *testing.B) { benchmarkDecodeBatch(b, 8, nil) }

// BenchmarkDecodeBatchClean64 is the clean path at server-sweep batch
// sizes: a whole 64-codeword burst per call.
func BenchmarkDecodeBatchClean64(b *testing.B) { benchmarkDecodeBatch(b, 64, nil) }

// BenchmarkDecodeBatch1Dirty has one 2-error lane among 8: the scalar
// fallback cost amortised over a mostly-clean batch.
func BenchmarkDecodeBatch1Dirty(b *testing.B) {
	benchmarkDecodeBatch(b, 8, map[int][]int{3: {3, 17}})
}

func BenchmarkDecodeErasuresScratch(b *testing.B) {
	c := New(36, 32)
	cw := benchCodeword(b, c, 3, 17, 30)
	s := c.NewScratch()
	erasures := []int{3, 17, 30}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.DecodeScratch(cw, erasures, 0, s); err != nil {
			b.Fatal(err)
		}
	}
}
