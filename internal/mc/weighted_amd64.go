package mc

import "arcc/internal/cpufeat"

// addAVX512 is WeightedSet.Add's per-dimension loop, eight dimensions at
// a time (weighted_amd64.s).
//
//go:noescape
func addAVX512(sumWX, mean, m2, vals []float64, w, n float64)

func init() {
	if _, avx512f := cpufeat.Vector(); avx512f {
		addKernel = addAVX512
	}
}
