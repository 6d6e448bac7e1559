package workload

import (
	"math"
	"math/rand"
	"testing"
)

// rngSeeds covers every branch of Seed's reduction modulo 2^31-1: negative
// seeds, zero (replaced by a fixed constant), multiples of 2^31-1 (which
// reduce to zero), and seeds at and beyond 2^31.
var rngSeeds = []int64{
	0, 1, -1, 2, 42, 7919, -7919,
	1<<31 - 2, 1<<31 - 1, 1 << 31, 1<<31 + 1, 2 * (1<<31 - 1), -(1<<31 - 1),
	3 * (1<<31 - 1), 1 << 32, 1 << 40, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
}

// rngBounds are Int63n arguments: powers of two (the masking path), small
// and large non-powers of two, and values near 2^62 where the rejection
// loop discards close to a quarter of all draws.
var rngBounds = []int64{
	1, 2, 3, 7, 1 << 10, 1<<16 + 1, 1 << 19, 3276, 52428, 1<<31 - 1,
	1 << 62, 1<<62 + 1, 1<<62 + 1<<61, math.MaxInt64,
}

// checkRNGMatches draws an interleaved sequence of Float64, Int63n and
// ExpFloat64 from the port and from math/rand under the same seed, with a
// re-seed of both generators midway, driven by the bytes of ops.
func checkRNGMatches(t testing.TB, seed, reseed int64, ops []byte) {
	t.Helper()
	var got rng
	got.Seed(seed)
	want := rand.New(rand.NewSource(seed))
	for i, op := range ops {
		if i == len(ops)/2 {
			got.Seed(reseed)
			want.Seed(reseed)
		}
		switch op % 3 {
		case 0:
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d op %d: Float64 = %v, math/rand %v", seed, i, g, w)
			}
		case 1:
			n := rngBounds[int(op/3)%len(rngBounds)]
			if g, w := got.Int63n(n), want.Int63n(n); g != w {
				t.Fatalf("seed %d op %d: Int63n(%d) = %d, math/rand %d", seed, i, n, g, w)
			}
		case 2:
			if g, w := got.ExpFloat64(), want.ExpFloat64(); g != w {
				t.Fatalf("seed %d op %d: ExpFloat64 = %v, math/rand %v", seed, i, g, w)
			}
		}
	}
}

// TestRNGMatchesMathRand pins the port to math/rand bit for bit over many
// seeds, every Int63n path and enough ExpFloat64 draws to reach the
// ziggurat's tail and wedge branches.
func TestRNGMatchesMathRand(t *testing.T) {
	src := rand.New(rand.NewSource(1))
	ops := make([]byte, 20000)
	for si, seed := range rngSeeds {
		src.Read(ops)
		checkRNGMatches(t, seed, rngSeeds[(si+1)%len(rngSeeds)], ops)
	}

	// A long ExpFloat64 run must take the tail branch (j's low byte 0 and
	// j >= ke[0], about 1 draw in 2,900) and return values beyond re.
	var got rng
	got.Seed(5)
	want := rand.New(rand.NewSource(5))
	tail := 0
	for i := 0; i < 200000; i++ {
		g, w := got.ExpFloat64(), want.ExpFloat64()
		if g != w {
			t.Fatalf("ExpFloat64 draw %d = %v, math/rand %v", i, g, w)
		}
		if g > re {
			tail++
		}
	}
	if tail == 0 {
		t.Fatal("no ExpFloat64 draw reached the tail")
	}
}

// FuzzRNGMatchesMathRand lets the fuzzer pick the seeds and the call mix.
func FuzzRNGMatchesMathRand(f *testing.F) {
	f.Add(int64(1), int64(2), []byte{0, 1, 2, 3, 4, 5})
	f.Add(int64(-1), int64(1<<31-1), []byte{37, 40, 2, 2, 2, 0})
	f.Add(int64(1<<31), int64(0), []byte{34, 37, 40, 1, 0, 2})
	f.Fuzz(func(t *testing.T, seed, reseed int64, ops []byte) {
		checkRNGMatches(t, seed, reseed, ops)
	})
}
