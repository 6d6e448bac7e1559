package rng

import (
	"fmt"
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
// which take Int63n. They are held as int64 so the list compiles for 32-bit
// targets, where the bounds above math.MaxInt are skipped.
var intnBounds = []int64{
	1, 2, 1 << 10, 1 << 30, 3, 7, 36, 52429, 1<<31 - 3,
	math.MaxInt32, math.MaxInt32 + 1, 1<<31 + 1, 1<<40 + 3, math.MaxInt64,
}

// atMostBounds are Int63sAtMost bounds: -1 (every draw is above it), 0,
// MaxInt64 (no draw is) and values that stop about 1/8, 1/2 and 7/8 of
// all draws.
var atMostBounds = []int64{-1, 0, math.MaxInt64, 7 << 60, 1 << 62, 1 << 60}

// checkRNGMatches drives two pairs of generators under the same seeds,
// with a re-seed of every generator midway, from the bytes of ops:
//
//   - the port's own Float64, Int63n, ExpFloat64, Intn, NormFloat64 and
//     Int63sAtMost against math/rand's (Int63sAtMost against as many
//     Int63 calls as it makes draws);
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
		switch op % 7 {
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
			n64 := intnBounds[int(op/6)%len(intnBounds)]
			if n64 > math.MaxInt {
				continue
			}
			n := int(n64)
			if g, w := got.Intn(n), want.Intn(n); g != w {
				t.Fatalf("seed %d op %d: Intn(%d) = %d, math/rand %d", seed, i, n, g, w)
			}
		case 5:
			if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
				t.Fatalf("seed %d op %d: NormFloat64 = %v, math/rand %v", seed, i, g, w)
			}
		case 6:
			bound := make([]int64, int(op/7)%9)
			for j := range bound {
				bound[j] = atMostBounds[(int(op)+j)%len(atMostBounds)]
			}
			n, above := got.Int63sAtMost(bound)
			if err := checkAtMost(bound, n, above, want.Int63); err != "" {
				t.Fatalf("seed %d op %d: Int63sAtMost(%v): %s", seed, i, bound, err)
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

// checkAtMost checks Int63sAtMost's result n, above for bound against
// the draws of int63, a generator in the state Int63sAtMost started from,
// and returns what is wrong, or "" when nothing is. It makes as many
// draws as Int63sAtMost should have made.
func checkAtMost(bound []int64, n int, above int64, int63 func() int64) string {
	if n < 0 || n > len(bound) {
		return fmt.Sprintf("n = %d outside [0, %d]", n, len(bound))
	}
	for j := 0; j < n; j++ {
		if w := int63(); w > bound[j] {
			return fmt.Sprintf("n = %d, but draw %d = %d is above its bound", n, j, w)
		}
	}
	if n == len(bound) {
		if above != -1 {
			return fmt.Sprintf("no draw above its bound, but above = %d", above)
		}
		return ""
	}
	if w := int63(); w != above || w <= bound[n] {
		return fmt.Sprintf("n = %d, above = %d; draw %d = %d", n, above, n, w)
	}
	return ""
}

// TestInt63sAtMostMatchesInt63 starts Int63sAtMost from every register
// position — after 0 to 606 draws from Seed, so tap and feed each take
// every value and each bound length wraps them at every offset — with
// bound lengths 0 to 8: all -1 (stop at the first draw), all MaxInt64
// (never stop), MaxInt64 but for one -1 at each index, and random. The
// result must match sequential Int63 calls, and so must the whole state
// it leaves.
func TestInt63sAtMostMatchesInt63(t *testing.T) {
	var base Source
	base.Seed(17)
	pick := rand.New(rand.NewSource(3))
	var bounds [][]int64
	for l := 0; l <= 8; l++ {
		low, high := make([]int64, l), make([]int64, l)
		for j := range low {
			low[j], high[j] = -1, math.MaxInt64
		}
		bounds = append(bounds, low, high)
		for k := 0; k < l; k++ {
			stop := append([]int64(nil), high...)
			stop[k] = -1
			bounds = append(bounds, stop)
		}
		for r := 0; r < 3; r++ {
			random := make([]int64, l)
			for j := range random {
				random[j] = pick.Int63()
			}
			bounds = append(bounds, random)
		}
	}
	for pos := 0; pos < rngLen; pos++ {
		for _, bound := range bounds {
			got, want := base, base
			n, above := got.Int63sAtMost(bound)
			if err := checkAtMost(bound, n, above, want.Int63); err != "" {
				t.Fatalf("after %d draws, Int63sAtMost(%v): %s", pos, bound, err)
			}
			if got != want {
				t.Fatalf("after %d draws, Int63sAtMost(%v) left tap %d feed %d, Int63 tap %d feed %d (or another word)",
					pos, bound, got.tap, got.feed, want.tap, want.feed)
			}
		}
		base.Int63()
	}
}

// refRuns is Int63RunsAtMost stated with Int63 calls.
func refRuns(r *Source, bound []int64, runs int) (k, i int, above int64) {
	for k := 0; k < runs; k++ {
		for i, b := range bound {
			if x := r.Int63(); x > b {
				return k, i, x
			}
		}
	}
	return runs, 0, -1
}

// forEachRunsPath calls f under each implementation of Int63RunsAtMost:
// the kernel installed at init (on CPUs with AVX-512F) and the Go loop,
// forced by clearing runsKernel. It reinstalls the kernel afterwards.
func forEachRunsPath(f func(path string, available bool)) {
	kernel := runsKernel
	defer func() { runsKernel = kernel }()
	f("kernel", kernel != nil)
	runsKernel = nil
	f("go", true)
}

// TestInt63RunsAtMostMatchesInt63 starts Int63RunsAtMost on each of its
// paths from every register position — after 0 to 606 draws from a
// random seed, so each group of eight draws meets the wraps of tap and
// feed at every offset — with run lengths 1 to 9 (below, at and above a
// group's eight draws), 1 to 100 runs, and bounds drawn from -1 (stop
// at once), MaxInt64 (never stop) and thresholds a draw passes with
// probability 31/32 or 127/128, so runs end at every index of every
// group offset. The result must match sequential Int63 calls, and so
// must the whole state it leaves.
func TestInt63RunsAtMostMatchesInt63(t *testing.T) {
	pick := rand.New(rand.NewSource(4))
	levels := []int64{-1, math.MaxInt64, math.MaxInt64 - math.MaxInt64/32, math.MaxInt64 - math.MaxInt64/128}
	forEachRunsPath(func(path string, available bool) {
		if !available {
			t.Logf("%s: this CPU has no run kernel", path)
			return
		}
		var base Source
		base.Seed(pick.Int63())
		for pos := 0; pos < rngLen; pos++ {
			for l := 1; l <= 9; l++ {
				bound := make([]int64, l)
				for j := range bound {
					// Mostly passing bounds, so that runs go on
					// across groups and wraps.
					bound[j] = levels[2+pick.Intn(2)]
					if pick.Intn(4*l) == 0 {
						bound[j] = levels[pick.Intn(2)]
					}
				}
				b := NewRunBounds(bound)
				runs := 1 + pick.Intn(100)
				got, want := base, base
				k, i, above := got.Int63RunsAtMost(&b, runs)
				wk, wi, wabove := refRuns(&want, bound, runs)
				if k != wk || i != wi || above != wabove {
					t.Fatalf("%s: after %d draws, %d runs of %v: (%d, %d, %d), Int63 (%d, %d, %d)",
						path, pos, runs, bound, k, i, above, wk, wi, wabove)
				}
				if got != want {
					t.Fatalf("%s: after %d draws, %d runs of %v left tap %d feed %d, Int63 tap %d feed %d (or another word)",
						path, pos, runs, bound, got.tap, got.feed, want.tap, want.feed)
				}
			}
			base.Int63()
		}
	})
}

// avx2SeedKernel is the AVX2 kernel on amd64 CPUs that have AVX2 (set by
// kernels_amd64_test.go), nil elsewhere.
var avx2SeedKernel func(x uint64, vec *[rngLen]int64)

// forEachSeedPath calls f under each implementation of Seed: the vector
// kernel installed at init (AVX-512 or AVX2, available only on CPUs that
// have one), the AVX2 kernel again (the fallback of CPUs without
// AVX-512), and the Go loop, forced by clearing seedKernel. It
// reinstalls the kernel afterwards.
func forEachSeedPath(f func(path string, available bool)) {
	kernel := seedKernel
	defer func() { seedKernel = kernel }()
	f("kernel", kernel != nil)
	seedKernel = avx2SeedKernel
	f("avx2", avx2SeedKernel != nil)
	seedKernel = nil
	f("go", true)
}

// TestSeedFillsMathRandState checks the whole feedback register right
// after Seed, over a dense run of seeds and every reduction branch, on
// every seeding path: the first 607 draws read each word of it exactly
// once.
func TestSeedFillsMathRandState(t *testing.T) {
	seeds := append([]int64(nil), rngSeeds...)
	for s := int64(-1000); s <= 1000; s++ {
		seeds = append(seeds, s*7919+3)
	}
	forEachSeedPath(func(path string, available bool) {
		t.Run(path, func(t *testing.T) {
			if !available {
				t.Skip("this CPU has no such seed kernel")
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
// and checks them on every seeding path.
func FuzzRNGMatchesMathRand(f *testing.F) {
	f.Add(int64(1), int64(2), []byte{0, 1, 2, 3, 4, 5})
	f.Add(int64(-1), int64(1<<31-1), []byte{37, 40, 2, 2, 2, 0})
	f.Add(int64(1<<31), int64(0), []byte{34, 37, 40, 1, 0, 2})
	f.Add(int64(math.MinInt64), int64(math.MaxInt64), []byte{4, 9, 14, 19, 24, 29, 3, 8})
	f.Add(int64(-3*(1<<31-1)), int64(-42), []byte{9, 4, 4, 14, 0, 1, 2, 3, 4})
	f.Add(int64(7), int64(8), []byte{3, 5, 9, 11, 63, 65, 81, 83, 5, 5})
	// Int63sAtMost over bound lengths 0 to 8.
	f.Add(int64(11), int64(12), []byte{6, 13, 20, 27, 34, 41, 48, 55, 62, 69, 76, 83, 90})
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
// path (the installed kernel, the AVX2 kernel and the Go loop), with
// building the generator the way math/rand does, rand.NewSource (which
// also allocates the 4.9 KB state).
func BenchmarkSeed(b *testing.B) {
	forEachSeedPath(func(path string, available bool) {
		b.Run("Source/"+path, func(b *testing.B) {
			if !available {
				b.Skip("this CPU has no such seed kernel")
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

var atMostSink int

// BenchmarkInt63sAtMost draws what a plain field-rate lifetime trial
// draws for its seven fault types: seven bounds, each of which a draw
// exceeds one time in 128.
func BenchmarkInt63sAtMost(b *testing.B) {
	bound := make([]int64, 7)
	for j := range bound {
		bound[j] = math.MaxInt64 - 1<<56
	}
	var s Source
	s.Seed(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n, _ := s.Int63sAtMost(bound)
		atMostSink += n
	}
}

var runsSink int

// BenchmarkEmptyRuns draws 64 empty lifetime trials of seven fault types
// (every draw at most its bound), one shard's worth: through
// Int63RunsAtMost on each of its paths (the AVX-512 kernel where the CPU
// has it, and the Go loop), and as 64 Int63sAtMost calls, the per-trial
// loop the Go path runs.
func BenchmarkEmptyRuns(b *testing.B) {
	bound := make([]int64, 7)
	for j := range bound {
		bound[j] = math.MaxInt64
	}
	rb := NewRunBounds(bound)
	forEachRunsPath(func(path string, available bool) {
		b.Run("Int63RunsAtMost/"+path, func(b *testing.B) {
			if !available {
				b.Skip("this CPU has no run kernel")
			}
			var s Source
			s.Seed(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k, _, _ := s.Int63RunsAtMost(&rb, 64)
				runsSink += k
			}
		})
	})
	b.Run("Int63sAtMost", func(b *testing.B) {
		var s Source
		s.Seed(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for range 64 {
				n, _ := s.Int63sAtMost(bound)
				runsSink += n
			}
		}
	})
}
