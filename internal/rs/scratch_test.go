package rs

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestDecodeScratchMatchesWrappers drives DecodeScratch with one long-lived
// Scratch and the decodeOne wrapper (a fresh Scratch per decode) over the
// same randomized error patterns — clean words, correctable errors,
// uncorrectable garbage — proving that workspace reuse never leaks state
// between decodes.
func TestDecodeScratchMatchesWrappers(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for _, c := range codesUnderTest() {
		s := c.NewScratch()
		for trial := 0; trial < 500; trial++ {
			cw := encode(c, randData(r, c.K()))
			bad := make([]byte, len(cw))
			copy(bad, cw)
			// 0..N-K+1 errors: from clean through correctable to beyond.
			errs := r.Intn(c.CheckSymbols() + 2)
			for _, p := range r.Perm(c.N())[:errs] {
				bad[p] ^= byte(1 + r.Intn(255))
			}
			maxErrors := r.Intn(c.CheckSymbols()/2 + 1)

			want, wantErr := decodeOne(c, bad, nil, maxErrors)
			got, gotErr := c.DecodeScratch(bad, nil, maxErrors, s)
			if wantErr != gotErr {
				t.Fatalf("(%d,%d) trial %d: reused-scratch err %v, fresh-scratch err %v", c.N(), c.K(), trial, gotErr, wantErr)
			}
			if gotErr != nil {
				continue
			}
			if !bytes.Equal(got.Corrected, want.Corrected) || !equalInts(got.ErrorPositions, want.ErrorPositions) {
				t.Fatalf("(%d,%d) trial %d: reused scratch decoded %x at %v, fresh scratch %x at %v",
					c.N(), c.K(), trial, got.Corrected, got.ErrorPositions, want.Corrected, want.ErrorPositions)
			}
		}
	}
}

// TestDecodeScratchWithErasuresMatchesWrapper is the erasure-path twin of
// the test above, interleaving erasure decodes with error decodes on the
// same Scratch.
func TestDecodeScratchWithErasuresMatchesWrapper(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, c := range codesUnderTest() {
		s := c.NewScratch()
		nk := c.CheckSymbols()
		for trial := 0; trial < 500; trial++ {
			cw := encode(c, randData(r, c.K()))
			bad := make([]byte, len(cw))
			copy(bad, cw)
			numErase := r.Intn(nk + 1)
			perm := r.Perm(c.N())
			erasures := perm[:numErase]
			maxErrors := r.Intn((nk-numErase)/2 + 1)
			// Corrupt some erased positions and maybe extra ones.
			for _, p := range erasures {
				if r.Intn(2) == 0 {
					bad[p] ^= byte(1 + r.Intn(255))
				}
			}
			extra := r.Intn(maxErrors + 2) // occasionally beyond capacity
			for _, p := range perm[numErase : numErase+extra] {
				bad[p] ^= byte(1 + r.Intn(255))
			}

			fresh := c.NewScratch()
			want, wantErr := c.DecodeScratch(bad, erasures, maxErrors, fresh)
			got, gotErr := c.DecodeScratch(bad, erasures, maxErrors, s)
			if wantErr != gotErr {
				t.Fatalf("(%d,%d) trial %d: reused-scratch err %v, fresh-scratch err %v", c.N(), c.K(), trial, gotErr, wantErr)
			}
			if gotErr != nil {
				// Interleave an error-only decode to stress scratch reuse.
				c.DecodeScratch(cw, nil, c.CheckSymbols()/2, s)
				continue
			}
			if !bytes.Equal(got.Corrected, want.Corrected) || !equalInts(got.ErrorPositions, want.ErrorPositions) {
				t.Fatalf("(%d,%d) trial %d: reused scratch disagrees with a fresh one", c.N(), c.K(), trial)
			}
		}
	}
}

// TestErasureOnlyDecodeDetectsExcessErrors pins the erasure-only policy
// (maxErrors == 0): a codeword carrying errors beyond the erased positions
// has nonzero modified syndromes past the erasure count and must come back
// ErrUncorrectable — never a silent miscorrection presented as success.
func TestErasureOnlyDecodeDetectsExcessErrors(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for _, c := range codesUnderTest() {
		nk := c.CheckSymbols()
		for numErase := 1; numErase < nk; numErase++ {
			for trial := 0; trial < 200; trial++ {
				cw := encode(c, randData(r, c.K()))
				bad := make([]byte, len(cw))
				copy(bad, cw)
				perm := r.Perm(c.N())
				erasures := perm[:numErase]
				for _, p := range erasures {
					bad[p] ^= byte(1 + r.Intn(255))
				}
				// One extra error the erasure list does not cover.
				bad[perm[numErase]] ^= byte(1 + r.Intn(255))

				res, err := decodeOne(c, bad, erasures, 0)
				if err == nil && bytes.Equal(res.Corrected, cw) {
					t.Fatalf("(%d,%d) %d erasures + 1 error: erasure-only decode claimed the original codeword", c.N(), c.K(), numErase)
				}
				if err != ErrUncorrectable {
					t.Fatalf("(%d,%d) %d erasures + 1 error: err = %v, want ErrUncorrectable", c.N(), c.K(), numErase, err)
				}
			}
		}
	}
}

// TestScratchEntryPointsZeroAllocations is the allocation regression
// contract of this package: the steady-state codec path must not touch the
// heap.
func TestScratchEntryPointsZeroAllocations(t *testing.T) {
	c := New(36, 32)
	r := rand.New(rand.NewSource(23))
	cw := encode(c, randData(r, c.K()))
	oneErr := append([]byte(nil), cw...)
	oneErr[5] ^= 0x21
	twoErr := append([]byte(nil), cw...)
	twoErr[3] ^= 0x5a
	twoErr[17] ^= 0xc3
	s := c.NewScratch()
	syn := make([]byte, c.CheckSymbols())

	cases := []struct {
		name string
		f    func()
	}{
		{"EncodeInto", func() { c.EncodeInto(cw) }},
		{"SyndromesInto", func() { c.SyndromesInto(cw, syn) }},
		{"DecodeScratch/clean", func() {
			if _, err := c.DecodeScratch(cw, nil, 2, s); err != nil {
				t.Fatal(err)
			}
		}},
		{"DecodeScratch/1err", func() {
			if _, err := c.DecodeScratch(oneErr, nil, 2, s); err != nil {
				t.Fatal(err)
			}
		}},
		{"DecodeScratch/2err", func() {
			if _, err := c.DecodeScratch(twoErr, nil, 2, s); err != nil {
				t.Fatal(err)
			}
		}},
		{"DecodeScratch/erasures", func() {
			if _, err := c.DecodeScratch(twoErr, []int{3, 17}, 1, s); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		tc.f() // warm up (first use may grow nothing, but keep it uniform)
		if allocs := testing.AllocsPerRun(100, tc.f); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestScratchResultAliasing documents the Scratch ownership contract: the
// Result of a scratch decode is overwritten by the next decode on the same
// workspace.
func TestScratchResultAliasing(t *testing.T) {
	c := New(36, 32)
	r := rand.New(rand.NewSource(24))
	cwA := encode(c, randData(r, c.K()))
	cwB := encode(c, randData(r, c.K()))
	s := c.NewScratch()

	resA, err := c.DecodeScratch(cwA, nil, 2, s)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resA.Corrected, cwA) {
		t.Fatal("first scratch decode wrong")
	}
	if _, err := c.DecodeScratch(cwB, nil, 2, s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resA.Corrected, cwB) {
		t.Fatal("scratch result did not alias the workspace; update the contract docs")
	}
}
