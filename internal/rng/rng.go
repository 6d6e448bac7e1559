// Copyright 2009 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

// Package rng is math/rand's default generator — the lagged-Fibonacci
// rngSource of rand.NewSource with the Float64, Int63n, Intn, ExpFloat64
// and NormFloat64 of rand.Rand — ported so that callers can hold it by
// value and call concrete methods the compiler can inline, and reseed it
// without allocating. It produces math/rand's value stream bit for bit
// (TestRNGMatchesMathRand), so every result generated through it is
// unchanged.
//
// Source implements rand.Source64. The synthetic access streams call it
// directly, and the Monte Carlo engine owns one per worker, reseeds it
// for every shard and hands it to the trials itself, so a trial's draws
// are direct calls rather than calls through rand.Rand's Source
// interface. Only the engine's plain Job.Trial still receives a
// *rand.Rand, wrapped around the same Source.
//
// Two operations have AVX-512 kernels on amd64 CPUs that have it
// (chosen once at init through cpufeat; every other host runs the Go
// loops, which are also the kernels' test references): Seed, which
// builds the 607-word register eight words at a time (an AVX2 kernel
// four at a time on CPUs without AVX-512), and Int63RunsAtMost, which
// makes the draws of a lifetime shard's empty trials eight per
// instruction. On a 2-vCPU Xeon a reseed takes about 0.5 µs on the
// AVX-512 kernel and 3 µs on the Go loop (BenchmarkSeed), and 64 empty
// trials of seven draws about 270 ns against 680–760 ns
// (BenchmarkEmptyRuns).
package rng

import "math"

// Source is the generator state. The zero value is unusable: Seed it
// first.
type Source struct {
	tap  int           // index into vec
	feed int           // index into vec
	vec  [rngLen]int64 // current feedback register
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1
	re       = 7.69711747013104972 // start of the exponential ziggurat's tail
	rn       = 3.442619855899      // start of the normal ziggurat's tail

	// seedA is the multiplier of math/rand's seeding LCG
	// x[n+1] = seedA·x[n] mod (2^31-1); seedSkip is the number of its
	// steps math/rand discards before the first feedback word.
	seedA    = 48271
	seedSkip = 20
)

// seedPow0/1/2[i] = seedA^(seedSkip+1+3i+k) mod (2^31-1), k = 0, 1, 2,
// take a reduced seed to the three LCG states feedback word i is built
// from; seedCooked is rngCooked as uint64. One array per factor lets the
// vector kernels load four or eight words' factors at once; seedPad
// rounds them up to whole eight-word groups with zeros.
var seedPow0, seedPow1, seedPow2, seedCooked [seedPad]uint64

// seedKernel, when set (by kernels_amd64.go on CPUs with AVX-512F or
// AVX2), writes words [0, seedKernelWords) of the register Seed builds
// from the reduced seed x, as Seed's Go loop would; the loop does the
// rest. Tests clear it to run the Go loop alone.
var seedKernel func(x uint64, vec *[rngLen]int64)

// runsKernel, when set (by kernels_amd64.go on CPUs with AVX-512F), makes
// Int63RunsAtMost's draws between register wraps eight at a time (see
// runsAVX512). Tests clear it to run the Go loop alone.
var runsKernel func(vec *[rngLen]int64, tap, feed, n int, rot []int64, off, runLen, step int) (d int, above int64)

const (
	seedPad         = (rngLen + 7) &^ 7
	seedKernelWords = rngLen &^ 3
	// seedZMMWords is the words the 8-lane kernel writes in whole
	// groups; it finishes with a masked group of four.
	seedZMMWords = rngLen &^ 7
)

func init() {
	x := uint64(1)
	for k := 1; k <= seedSkip; k++ {
		x = x * seedA % int32max
	}
	for i := 0; i < rngLen; i++ {
		for _, pow := range []*[seedPad]uint64{&seedPow0, &seedPow1, &seedPow2} {
			x = x * seedA % int32max
			pow[i] = x
		}
		seedCooked[i] = uint64(rngCooked[i])
	}
}

// mulMod returns a·b mod (2^31-1) for a, b in [1, 2^31-2]. Since
// 2^31 ≡ 1 (mod 2^31-1), one fold of the high bits onto the low bits
// leaves a value below 2·(2^31-1), and one conditional subtraction
// finishes the reduction.
func mulMod(a, b uint64) uint64 {
	x := a * b
	x = x&int32max + x>>31
	if x >= int32max {
		x -= int32max
	}
	return x
}

// Seed initialises the generator as rand.NewSource(seed) does.
//
// math/rand walks its seeding LCG x[n+1] = 48271·x[n] mod (2^31-1) one
// step at a time from x[0] = seed, discards 20 states and builds feedback
// word i from states 3i+21, 3i+22 and 3i+23. Those states are exactly
// seed·48271^k mod (2^31-1), so Seed computes each one from a power in
// seedPow0/1/2 instead: the same integers, in independent
// multiplications rather than one 1,841-step dependent chain.
func (r *Source) Seed(seed int64) {
	r.tap = 0
	r.feed = rngLen - rngTap

	seed = seed % int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}

	x := uint64(seed)
	i := 0
	if seedKernel != nil {
		seedKernel(x, &r.vec)
		i = seedKernelWords
	}
	for ; i < rngLen; i++ {
		u := int64(mulMod(x, seedPow0[i])) << 40
		u ^= int64(mulMod(x, seedPow1[i])) << 20
		u ^= int64(mulMod(x, seedPow2[i]))
		r.vec[i] = u ^ rngCooked[i]
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *Source) Int63() int64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return x & rngMask
}

// Int63sAtMost draws Int63 values in turn, comparing the i-th with
// bound[i], and stops after the first draw above its bound. It returns n,
// the number of draws at most their bounds, and, when n < len(bound), the
// draw above bound[n] that ended the run (above is -1 otherwise). The
// stream advances exactly as min(n+1, len(bound)) Int63 calls would. When
// none of the draws can wrap tap or feed, the loop skips Int63's two wrap
// checks per draw; otherwise it calls Int63.
func (r *Source) Int63sAtMost(bound []int64) (n int, above int64) {
	tap, feed := r.tap, r.feed
	if tap < len(bound) || feed < len(bound) {
		for i, b := range bound {
			if x := r.Int63(); x > b {
				return i, x
			}
		}
		return len(bound), -1
	}
	for i, b := range bound {
		tap--
		feed--
		x := r.vec[feed] + r.vec[tap]
		r.vec[feed] = x
		if x &= rngMask; x > b {
			r.tap, r.feed = tap, feed
			return i, x
		}
	}
	r.tap, r.feed = tap, feed
	return len(bound), -1
}

// RunBounds is the bound vector of Int63RunsAtMost, with the table its
// vector kernel compares eight draws against at once. Build it once
// (NewRunBounds) and reuse it; it is read-only.
type RunBounds struct {
	bound []int64
	// rot[8·o+7-j] = bound[(o+j) mod len(bound)]: the bounds of the eight
	// draws of a group that starts at bound index o, in the kernel's lane
	// order (the first draw in the top lane).
	rot []int64
	// step is 8 mod len(bound), the offset one group advances by.
	step int
}

// NewRunBounds returns the RunBounds of bound, which it copies.
func NewRunBounds(bound []int64) RunBounds {
	b := RunBounds{bound: append([]int64(nil), bound...)}
	if l := len(bound); l > 0 {
		b.step = 8 % l
		b.rot = make([]int64, 8*l)
		for o := 0; o < l; o++ {
			for j := 0; j < 8; j++ {
				b.rot[8*o+7-j] = bound[(o+j)%l]
			}
		}
	}
	return b
}

// Int63RunsAtMost makes up to runs runs of Int63sAtMost(bound) with b =
// NewRunBounds(bound), stopping in the first run that has a draw above
// its bound. It returns k, the number of whole runs whose every draw was
// at most its bound, and, when k < runs, the index i in bound and the
// value of the draw that ended run k (i = 0 and above = -1 otherwise).
// The stream advances exactly as the Int63 calls of those runs would:
// k·len(bound) + i + 1 of them, or runs·len(bound). On CPUs with
// AVX-512F the draws between register wraps run eight at a time
// (runsAVX512); elsewhere it is the loop of Int63sAtMost calls.
func (r *Source) Int63RunsAtMost(b *RunBounds, runs int) (k, i int, above int64) {
	l := len(b.bound)
	if runsKernel == nil || l == 0 {
		for k = 0; k < runs; k++ {
			if i, above = r.Int63sAtMost(b.bound); i < l {
				return k, i, above
			}
		}
		return runs, 0, -1
	}
	done := 0
	for left := runs * l; left > 0; {
		// Int63 wraps an index at 0 before it draws; here the kernel
		// draws below index rngLen instead.
		if r.tap == 0 {
			r.tap = rngLen
		}
		if r.feed == 0 {
			r.feed = rngLen
		}
		d, x := runsKernel(&r.vec, r.tap, r.feed, min(r.tap, r.feed, left), b.rot, done%l, l, b.step)
		r.tap -= d
		r.feed -= d
		if x >= 0 {
			done += d - 1
			return done / l, done % l, x
		}
		done += d
		left -= d
	}
	return runs, 0, -1
}

// Uint64 returns a pseudo-random 64-bit value, the full feedback word
// whose low 63 bits Int63 returns.
func (r *Source) Uint64() uint64 {
	r.tap--
	if r.tap < 0 {
		r.tap += rngLen
	}
	r.feed--
	if r.feed < 0 {
		r.feed += rngLen
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

// Float64 returns a pseudo-random number in [0.0, 1.0), resampling the
// 1-in-2^53 draw that rounds up to 1.0 as math/rand does.
func (r *Source) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Int63n returns a non-negative pseudo-random number in [0, n). It panics
// if n <= 0.
func (r *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("invalid argument to Int63n")
	}
	if n&(n-1) == 0 { // n is power of two, can mask
		return r.Int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := r.Int63()
	for v > max {
		v = r.Int63()
	}
	return v % n
}

// Intn returns a non-negative pseudo-random number in [0, n), by
// rand.Rand's Int31n for n < 2^31 and Int63n above. It panics if n <= 0.
func (r *Source) Intn(n int) int { return r.Below(NewBound(n)) }

// Bound is the range [0, n) of an Intn draw together with its rejection
// bound, so a caller drawing from one range many times computes the
// bound once (NewBound) and draws with Below.
type Bound struct {
	n int
	// max is the largest accepted 31-bit draw, or -1 when n is a power of
	// two, whose draws are masked. Unused above 2^31-1, where Below is
	// Int63n.
	max int32
}

// NewBound returns the bound of Intn(n). It panics if n <= 0.
func NewBound(n int) Bound {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n > int32max {
		return Bound{n: n}
	}
	m := int32(n)
	if m&(m-1) == 0 { // n is power of two, can mask
		return Bound{n: n, max: -1}
	}
	return Bound{n: n, max: int32((1 << 31) - 1 - (1<<31)%uint32(m))}
}

// Below returns Intn(n) for b = NewBound(n): the same value, advancing
// the stream by the same draws.
func (r *Source) Below(b Bound) int {
	if b.n > int32max {
		return int(r.Int63n(int64(b.n)))
	}
	m := int32(b.n)
	v := int32(r.Int63() >> 32)
	if b.max < 0 {
		return int(v & (m - 1))
	}
	for v > b.max {
		v = int32(r.Int63() >> 32)
	}
	return int(v % m)
}

// ExpFloat64 returns an exponentially distributed float64 with rate 1, by
// the ziggurat method of Marsaglia and Tsang (2000).
func (r *Source) ExpFloat64() float64 {
	for {
		j := uint32(r.Int63() >> 31)
		i := j & 0xFF
		x := float64(j) * float64(we[i])
		if j < ke[i] {
			return x
		}
		if i == 0 {
			return re - math.Log(r.Float64())
		}
		if fe[i]+float32(r.Float64())*(fe[i-1]-fe[i]) < float32(math.Exp(-x)) {
			return x
		}
	}
}

// NormFloat64 returns a standard normally distributed float64, by the
// ziggurat method of Marsaglia and Tsang (2000).
func (r *Source) NormFloat64() float64 {
	for {
		j := int32(uint32(r.Int63() >> 31)) // possibly negative
		i := j & 0x7F
		x := float64(j) * float64(wn[i])
		if absInt32(j) < kn[i] {
			return x
		}
		if i == 0 {
			for {
				x = -math.Log(r.Float64()) * (1.0 / rn)
				y := -math.Log(r.Float64())
				if y+y >= x*x {
					break
				}
			}
			if j > 0 {
				return rn + x
			}
			return -rn - x
		}
		if fn[i]+float32(r.Float64())*(fn[i-1]-fn[i]) < float32(math.Exp(-.5*x*x)) {
			return x
		}
	}
}

func absInt32(i int32) uint32 {
	if i < 0 {
		return uint32(-i)
	}
	return uint32(i)
}
