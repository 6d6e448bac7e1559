package rs

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// corrupt flips e distinct symbols of cw (in place) to different values
// drawn from rng, returning the corrupted positions in increasing order.
func corrupt(rng *rand.Rand, cw []byte, e int) []int {
	positions := rng.Perm(len(cw))[:e]
	for _, p := range positions {
		delta := byte(1 + rng.Intn(255)) // nonzero, so the symbol changes
		cw[p] ^= delta
	}
	out := append([]int(nil), positions...)
	for i := range out {
		for j := i + 1; j < len(out); j++ {
			if out[j] < out[i] {
				out[i], out[j] = out[j], out[i]
			}
		}
	}
	return out
}

// fuzzCodes are the two geometries the ARCC evaluation uses: (18, 16) for
// relaxed pages and (36, 32) for upgraded pages.
var fuzzCodes = []*Code{New(18, 16), New(36, 32)}

// FuzzRSRoundTrip checks, for both ARCC code geometries, the two
// guarantees memory controllers rely on:
//
//   - a codeword corrupted in at most t = floor((N-K)/2) symbols decodes
//     back to the original, reporting exactly the corrupted positions;
//   - under bounded decoding with bound b, any corruption of e symbols
//     with b < e <= N-K-b is flagged ErrUncorrectable (a DUE) — never
//     silently miscorrected. (For the 4-check upgraded code with b = 1
//     this is SCCDCD's "single correct, double detect" guarantee; full
//     2t-radius decoding carries no such band, see
//     TestRelaxedCodeDoubleErrorMayMiscorrect.)
func FuzzRSRoundTrip(f *testing.F) {
	f.Add(int64(1), []byte("fuzz seed"))
	f.Add(int64(42), []byte{0, 0, 0, 0})
	f.Add(int64(-7), []byte{0xFF, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, seed int64, data []byte) {
		rng := rand.New(rand.NewSource(seed))
		for _, code := range fuzzCodes {
			msg := make([]byte, code.K())
			for i := range msg {
				if len(data) > 0 {
					msg[i] = data[i%len(data)]
				}
			}
			clean := encode(code, msg)

			// Correctable band: e <= t errors round-trip.
			e := rng.Intn(code.CheckSymbols()/2 + 1)
			cw := append([]byte(nil), clean...)
			want := corrupt(rng, cw, e)
			res, err := decodeOne(code, cw, nil, code.CheckSymbols()/2)
			if err != nil {
				t.Fatalf("(%d,%d): %d <= t errors not corrected: %v", code.N(), code.K(), e, err)
			}
			if !bytes.Equal(res.Corrected, clean) {
				t.Fatalf("(%d,%d): decode returned wrong codeword for %d errors", code.N(), code.K(), e)
			}
			if len(res.ErrorPositions) != len(want) {
				t.Fatalf("(%d,%d): corrected positions %v, corrupted %v", code.N(), code.K(), res.ErrorPositions, want)
			}
			for i := range want {
				if res.ErrorPositions[i] != want[i] {
					t.Fatalf("(%d,%d): corrected positions %v, corrupted %v", code.N(), code.K(), res.ErrorPositions, want)
				}
			}

			// Guaranteed-detection band: with bound b, e in (b, N-K-b]
			// errors must be a DUE. Use the strongest policy bound the
			// code offers (b = t-1; for the relaxed code that is b = 0,
			// detect-only).
			b := code.CheckSymbols()/2 - 1
			lo, hi := b+1, code.CheckSymbols()-b
			e2 := lo + rng.Intn(hi-lo+1)
			cw2 := append([]byte(nil), clean...)
			corrupt(rng, cw2, e2)
			if _, err := decodeOne(code, cw2, nil, b); !errors.Is(err, ErrUncorrectable) {
				t.Fatalf("(%d,%d): %d errors under bound %d not flagged as DUE: %v",
					code.N(), code.K(), e2, b, err)
			}

			// Erasure band: up to N-K known-bad positions reconstruct.
			ne := 1 + rng.Intn(code.CheckSymbols())
			cw3 := append([]byte(nil), clean...)
			erased := corrupt(rng, cw3, ne)
			res3, err := decodeOne(code, cw3, erased, 0)
			if err != nil || !bytes.Equal(res3.Corrected, clean) {
				t.Fatalf("(%d,%d): %d erasures not reconstructed: %v", code.N(), code.K(), ne, err)
			}
		}
	})
}

// TestRSCorruptionPropertyTable is the seeded companion of FuzzRSRoundTrip:
// it sweeps every error count in both the correctable and the
// guaranteed-detection band for both code geometries, many trials each, so
// the properties hold in ordinary `go test` runs without the fuzzer.
func TestRSCorruptionPropertyTable(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, code := range fuzzCodes {
		msg := make([]byte, code.K())
		for trial := 0; trial < 200; trial++ {
			rng.Read(msg)
			clean := encode(code, msg)

			for e := 0; e <= code.CheckSymbols()/2; e++ {
				cw := append([]byte(nil), clean...)
				corrupt(rng, cw, e)
				res, err := decodeOne(code, cw, nil, code.CheckSymbols()/2)
				if err != nil || !bytes.Equal(res.Corrected, clean) {
					t.Fatalf("(%d,%d) trial %d: %d errors not corrected (%v)", code.N(), code.K(), trial, e, err)
				}
			}

			b := code.CheckSymbols()/2 - 1
			for e := b + 1; e <= code.CheckSymbols()-b; e++ {
				cw := append([]byte(nil), clean...)
				corrupt(rng, cw, e)
				if _, err := decodeOne(code, cw, nil, b); !errors.Is(err, ErrUncorrectable) {
					t.Fatalf("(%d,%d) trial %d: %d errors under bound %d escaped detection (%v)",
						code.N(), code.K(), trial, e, b, err)
				}
			}
		}
	}
}
