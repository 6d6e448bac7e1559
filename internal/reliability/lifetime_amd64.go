package reliability

import (
	"arcc/internal/cpufeat"
	"arcc/internal/faultmodel"
)

// pageSeriesAVX512 is faultyPageSeries for up to eight years, one lane
// per year (lifetime_amd64.s). It reads each faultmodel.Arrival's
// AtHours and Type at their offsets in the struct, which
// TestArrivalLayout pins, and indexes frac with the Type unchecked.
//
//go:noescape
func pageSeriesAVX512(arrivals []faultmodel.Arrival, frac *[faultmodel.NumTypes]float64, ends, series []float64)

func init() {
	if _, avx512f := cpufeat.Vector(); avx512f {
		seriesKernel = pageSeriesAVX512
	}
}
