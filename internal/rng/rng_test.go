package rng

import (
	"math"
	"math/rand"
	"testing"
)

// rngSeeds covers every branch of Seed's reduction modulo 2^31-1: negative
// seeds, zero (replaced by a fixed constant), multiples of 2^31-1 (which
// reduce to zero and take the same constant), and seeds at and beyond
// 2^31 up to the int64 extremes.
var rngSeeds = []int64{
	0, 1, -1, 2, 42, 7919, -7919, 89482311,
	1<<31 - 2, 1<<31 - 1, 1 << 31, 1<<31 + 1, 2 * (1<<31 - 1), -(1<<31 - 1),
	3 * (1<<31 - 1), -5 * (1<<31 - 1), (math.MaxInt64 / (1<<31 - 1)) * (1<<31 - 1),
	(math.MinInt64 / (1<<31 - 1)) * (1<<31 - 1),
	1 << 32, 1 << 40, -1 << 40, math.MaxInt64, math.MaxInt64 - 1, math.MinInt64, math.MinInt64 + 1,
}

// rngBounds are Int63n arguments: powers of two (the masking path), small
// and large non-powers of two, and values near 2^62 where the rejection
// loop discards close to a quarter of all draws.
var rngBounds = []int64{
	1, 2, 3, 7, 1 << 10, 1<<16 + 1, 1 << 19, 3276, 52428, 1<<31 - 1,
	1 << 62, 1<<62 + 1, 1<<62 + 1<<61, math.MaxInt64,
}

// intnBounds are Intn arguments: 1, powers of two (the masking path), odd
// values, MaxInt32 (the largest that takes Int31n) and values above it,
// which take Int63n.
var intnBounds = []int{
	1, 2, 1 << 10, 1 << 30, 3, 7, 36, 52429, 1<<31 - 3,
	math.MaxInt32, math.MaxInt32 + 1, 1<<31 + 1, 1<<40 + 3, math.MaxInt64,
}

// checkRNGMatches drives two pairs of generators under the same seeds,
// with a re-seed of every generator midway, from the bytes of ops:
//
//   - the port's own Float64, Int63n, ExpFloat64, Intn and NormFloat64
//     against math/rand's;
//   - a *rand.Rand over the port against one over rand.NewSource, through
//     the Rand methods the Monte Carlo trials use (Uint64 takes the
//     Source64 path), including a Read that leaves a partial buffer
//     behind, so the midway reseed of the reused Rand must also reset it.
func checkRNGMatches(t testing.TB, seed, reseed int64, ops []byte) {
	t.Helper()
	var got Source
	got.Seed(seed)
	want := rand.New(rand.NewSource(seed))
	wrapped := rand.New(new(Source))
	wrapped.Seed(seed)
	wrappedWant := rand.New(rand.NewSource(seed))
	var gb, wb [5]byte
	for i, op := range ops {
		if i == len(ops)/2 {
			got.Seed(reseed)
			want.Seed(reseed)
			wrapped.Seed(reseed)
			wrappedWant.Seed(reseed)
		}
		switch op % 6 {
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
		case 3, 4:
			n := intnBounds[int(op/6)%len(intnBounds)]
			if g, w := got.Intn(n), want.Intn(n); g != w {
				t.Fatalf("seed %d op %d: Intn(%d) = %d, math/rand %d", seed, i, n, g, w)
			}
		case 5:
			if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
				t.Fatalf("seed %d op %d: NormFloat64 = %v, math/rand %v", seed, i, g, w)
			}
		}
		switch op % 5 {
		case 0:
			if g, w := wrapped.Uint64(), wrappedWant.Uint64(); g != w {
				t.Fatalf("seed %d op %d: Rand.Uint64 = %d, math/rand %d", seed, i, g, w)
			}
		case 1:
			n := int(op/5) + 1
			if g, w := wrapped.Intn(n), wrappedWant.Intn(n); g != w {
				t.Fatalf("seed %d op %d: Rand.Intn(%d) = %d, math/rand %d", seed, i, n, g, w)
			}
		case 2:
			if g, w := wrapped.Float64(), wrappedWant.Float64(); g != w {
				t.Fatalf("seed %d op %d: Rand.Float64 = %v, math/rand %v", seed, i, g, w)
			}
		case 3:
			if g, w := wrapped.NormFloat64(), wrappedWant.NormFloat64(); g != w {
				t.Fatalf("seed %d op %d: Rand.NormFloat64 = %v, math/rand %v", seed, i, g, w)
			}
		case 4:
			n := int(op/5) % (len(gb) + 1)
			wrapped.Read(gb[:n])
			wrappedWant.Read(wb[:n])
			if gb != wb {
				t.Fatalf("seed %d op %d: Rand.Read = %v, math/rand %v", seed, i, gb, wb)
			}
		}
	}
}

// TestRNGMatchesMathRand pins the port to math/rand bit for bit over many
// seeds, every Int63n and Intn path and enough ExpFloat64 and NormFloat64
// draws to reach each ziggurat's tail and wedge branches.
func TestRNGMatchesMathRand(t *testing.T) {
	src := rand.New(rand.NewSource(1))
	ops := make([]byte, 20000)
	for si, seed := range rngSeeds {
		src.Read(ops)
		checkRNGMatches(t, seed, rngSeeds[(si+1)%len(rngSeeds)], ops)
	}

	// A long ExpFloat64 run must take the tail branch (j's low byte 0 and
	// j >= ke[0], about 1 draw in 2,900) and return values beyond re.
	var got Source
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

	// Likewise NormFloat64's base strip (j's low 7 bits 0 and
	// |j| >= kn[0], about 1 draw in 1,750) returns values beyond ±rn.
	got.Seed(6)
	want.Seed(6)
	tail = 0
	for i := 0; i < 200000; i++ {
		g, w := got.NormFloat64(), want.NormFloat64()
		if g != w {
			t.Fatalf("NormFloat64 draw %d = %v, math/rand %v", i, g, w)
		}
		if math.Abs(g) > rn {
			tail++
		}
	}
	if tail == 0 {
		t.Fatal("no NormFloat64 draw reached the tail")
	}
}

// forEachSeedPath calls f under each implementation of Seed: the vector
// kernel installed at init (available only on CPUs that have it) and the
// Go loop, forced by clearing seedKernel. It reinstalls the kernel
// afterwards.
func forEachSeedPath(f func(path string, available bool)) {
	kernel := seedKernel
	defer func() { seedKernel = kernel }()
	f("kernel", kernel != nil)
	seedKernel = nil
	f("go", true)
}

// TestSeedFillsMathRandState checks the whole feedback register right
// after Seed, over a dense run of seeds and every reduction branch, on
// both seeding paths: the first 607 draws read each word of it exactly
// once.
func TestSeedFillsMathRandState(t *testing.T) {
	seeds := append([]int64(nil), rngSeeds...)
	for s := int64(-1000); s <= 1000; s++ {
		seeds = append(seeds, s*7919+3)
	}
	forEachSeedPath(func(path string, available bool) {
		t.Run(path, func(t *testing.T) {
			if !available {
				t.Skip("this CPU has no vector seed kernel")
			}
			var got Source
			for _, seed := range seeds {
				got.Seed(seed)
				want := rand.NewSource(seed).(rand.Source64)
				for i := 0; i < rngLen; i++ {
					if g, w := got.Uint64(), want.Uint64(); g != w {
						t.Fatalf("seed %d: word %d = %#x, math/rand %#x", seed, i, g, w)
					}
				}
			}
		})
	})
}

// FuzzRNGMatchesMathRand lets the fuzzer pick the seeds and the call mix,
// and checks them on both seeding paths.
func FuzzRNGMatchesMathRand(f *testing.F) {
	f.Add(int64(1), int64(2), []byte{0, 1, 2, 3, 4, 5})
	f.Add(int64(-1), int64(1<<31-1), []byte{37, 40, 2, 2, 2, 0})
	f.Add(int64(1<<31), int64(0), []byte{34, 37, 40, 1, 0, 2})
	f.Add(int64(math.MinInt64), int64(math.MaxInt64), []byte{4, 9, 14, 19, 24, 29, 3, 8})
	f.Add(int64(-3*(1<<31-1)), int64(-42), []byte{9, 4, 4, 14, 0, 1, 2, 3, 4})
	f.Add(int64(7), int64(8), []byte{3, 5, 9, 11, 63, 65, 81, 83, 5, 5})
	f.Fuzz(func(t *testing.T, seed, reseed int64, ops []byte) {
		forEachSeedPath(func(path string, available bool) {
			if available {
				t.Logf("seed path %s", path)
				checkRNGMatches(t, seed, reseed, ops)
			}
		})
	})
}

var seedSink rand.Source

// BenchmarkSeed compares reseeding a Source in place, on each seeding
// path, with building the generator the way math/rand does,
// rand.NewSource (which also allocates the 4.9 KB state).
func BenchmarkSeed(b *testing.B) {
	forEachSeedPath(func(path string, available bool) {
		b.Run("Source/"+path, func(b *testing.B) {
			if !available {
				b.Skip("this CPU has no vector seed kernel")
			}
			b.ReportAllocs()
			var s Source
			for i := 0; i < b.N; i++ {
				s.Seed(int64(i))
			}
		})
	})
	b.Run("rand.NewSource", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seedSink = rand.NewSource(int64(i))
		}
	})
}
