package rng

import "arcc/internal/cpufeat"

// seedAVX2 and seedAVX512 are Seed's vector kernels (kernels_amd64.s),
// four and eight words at a time.
//
//go:noescape
func seedAVX2(x uint64, vec *[rngLen]int64)

//go:noescape
func seedAVX512(x uint64, vec *[rngLen]int64)

// runsAVX512 is Int63RunsAtMost's kernel (kernels_amd64.s), eight draws
// at a time.
//
//go:noescape
func runsAVX512(vec *[rngLen]int64, tap, feed, n int, rot []int64, off, runLen, step int) (d int, above int64)

func init() {
	switch avx2, avx512f := cpufeat.Vector(); {
	case avx512f:
		seedKernel = seedAVX512
		runsKernel = runsAVX512
	case avx2:
		seedKernel = seedAVX2
	}
}
