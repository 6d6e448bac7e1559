package faultmodel

import "math/rand"

// Arrival is one fault event in a simulated channel lifetime.
type Arrival struct {
	// AtHours is the fault's arrival time in hours since power-on.
	AtHours float64
	// Type is the fault type.
	Type Type
	// Rank is the affected rank, or -1 for lane faults (which sit on the
	// channel's shared bus and affect every rank).
	Rank int
	// Device is the affected device within the rank (for lane faults, the
	// device *position* whose lane is broken, identical in every rank).
	Device int
}

// SampleArrivals draws the fault history of one channel over a lifespan:
// for each fault type, a Poisson-distributed number of faults with the
// type's FIT rate aggregated over all devices, placed uniformly in time and
// on uniformly chosen devices. Results are sorted by arrival time. The
// returned slice is freshly allocated, pre-sized to the expected arrival
// count; Monte Carlo loops should call SampleArrivalsInto with a reused
// buffer instead.
//
// Every experiment passes its own seeded rng, so lifetimes are reproducible.
func SampleArrivals(rng *rand.Rand, rates Rates, ranks, devicesPerRank int, years float64) []Arrival {
	if ranks <= 0 || devicesPerRank <= 0 || years < 0 {
		panic("faultmodel: invalid sampling parameters")
	}
	buf := make([]Arrival, 0, ArrivalCapHint(rates, ranks, devicesPerRank, years))
	return SampleArrivalsInto(rng, buf, rates, ranks, devicesPerRank, years)
}

// SampleArrivalsInto is SampleArrivals drawing into buf's capacity: buf's
// contents are ignored, its backing array is reused, and the filled,
// sorted slice is returned (reallocated only if the draw outgrows the
// capacity). With an adequately sized buffer — see ArrivalCapHint — the
// steady state performs zero heap allocations. The RNG consumption is
// identical to SampleArrivals, so the two are interchangeable mid-stream.
// It builds a Sampler per call; Monte Carlo loops over one process build
// it once with NewSampler instead.
func SampleArrivalsInto(rng *rand.Rand, buf []Arrival, rates Rates, ranks, devicesPerRank int, years float64) []Arrival {
	var s Sampler
	s.initPlain(rates, ranks, devicesPerRank, years)
	out, _ := s.SampleInto(rng, buf)
	return out
}

// ExpectedArrivals returns the mean of the total arrival count
// SampleArrivals draws: the sum over fault types of the channel-aggregated
// Poisson means.
func ExpectedArrivals(rates Rates, ranks, devicesPerRank int, years float64) float64 {
	hours := years * HoursPerYear
	total := float64(ranks) * float64(devicesPerRank)
	var sum float64
	for _, t := range Types() {
		sum += rates[t] * 1e-9 * total * hours
	}
	return sum
}

// ArrivalCapHint returns a buffer capacity for SampleArrivalsInto that
// covers the expected arrival count with slack for typical fluctuation, so
// reallocation in the sampling loop is rare.
func ArrivalCapHint(rates Rates, ranks, devicesPerRank int, years float64) int {
	return int(ExpectedArrivals(rates, ranks, devicesPerRank, years)) + 4
}

// sortArrivals orders arrivals by time using insertion sort: channel
// histories are a handful of events at field rates, where insertion sort
// beats the generic sort machinery, and the direct field comparison keeps
// the sampling path free of comparator closures and sort.Interface boxing.
func sortArrivals(out []Arrival) {
	for i := 1; i < len(out); i++ {
		a := out[i]
		j := i - 1
		for j >= 0 && out[j].AtHours > a.AtHours {
			out[j+1] = out[j]
			j--
		}
		out[j+1] = a
	}
}
