// Copyright 2009 The Go Authors. All rights reserved.
// Use of this source code is governed by a BSD-style
// license that can be found in the LICENSE file.

package workload

import "math"

// rng is math/rand's default generator — the lagged-Fibonacci rngSource of
// rand.NewSource with the Float64, Int63n and ExpFloat64 of rand.Rand —
// ported so that Stream calls concrete methods the compiler can inline
// instead of going through the rand.Source interface three to five times
// per access. It produces math/rand's value stream bit for bit
// (TestRNGMatchesMathRand), so every result generated through it is
// unchanged. The zero value is unusable: Seed it first.
type rng struct {
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
)

// seedrand steps x[n+1] = 48271 * x[n] mod (2**31 - 1).
func seedrand(x int32) int32 {
	const (
		A = 48271
		Q = 44488
		R = 3399
	)
	hi := x / Q
	lo := x % Q
	x = A*lo - R*hi
	if x < 0 {
		x += int32max
	}
	return x
}

// Seed initialises the generator as rand.NewSource(seed) does.
func (r *rng) Seed(seed int64) {
	r.tap = 0
	r.feed = rngLen - rngTap

	seed = seed % int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}

	x := int32(seed)
	for i := -20; i < rngLen; i++ {
		x = seedrand(x)
		if i >= 0 {
			var u int64
			u = int64(x) << 40
			x = seedrand(x)
			u ^= int64(x) << 20
			x = seedrand(x)
			u ^= int64(x)
			u ^= rngCooked[i]
			r.vec[i] = u
		}
	}
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *rng) Int63() int64 {
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

// Float64 returns a pseudo-random number in [0.0, 1.0), resampling the
// 1-in-2^53 draw that rounds up to 1.0 as math/rand does.
func (r *rng) Float64() float64 {
	for {
		if f := float64(r.Int63()) / (1 << 63); f != 1 {
			return f
		}
	}
}

// Int63n returns a non-negative pseudo-random number in [0, n). It panics
// if n <= 0.
func (r *rng) Int63n(n int64) int64 {
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

// ExpFloat64 returns an exponentially distributed float64 with rate 1, by
// the ziggurat method of Marsaglia and Tsang (2000).
func (r *rng) ExpFloat64() float64 {
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
