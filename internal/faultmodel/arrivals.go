package faultmodel

import (
	"math"
	"math/rand"
)

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

// SampleArrivalsInto draws the fault history of one channel over a
// lifespan into buf's capacity: for each fault type, a Poisson-distributed
// number of faults with the type's FIT rate aggregated over all devices,
// placed uniformly in time and on uniformly chosen devices. buf's
// contents are ignored, its backing array is reused, and the filled
// slice, sorted by arrival time, is returned (reallocated only if the
// draw outgrows the capacity; a nil buf allocates). With an adequately
// sized buffer — see ArrivalCapHint — it performs no heap allocations. It
// panics on a non-positive geometry or a negative lifespan.
//
// SampleArrivalsInto and the other per-call samplers are the reference
// implementation of the arrival process: each call looks every rate up
// and computes each type's mean and e^{-mean} itself, and every uniform
// comes from rng's Float64 and Intn. Monte Carlo loops over one process
// build a Sampler once instead (NewSampler), which draws the same
// histories from an rng.Source seeded alike (TestSamplerMatchesReference).
//
// Every experiment passes its own seeded rng, so lifetimes are reproducible.
func SampleArrivalsInto(rng *rand.Rand, buf []Arrival, rates Rates, ranks, devicesPerRank int, years float64) []Arrival {
	checkGeometry(ranks, devicesPerRank, years)
	hours := years * HoursPerYear
	totalDevices := ranks * devicesPerRank
	out := buf[:0]
	for _, t := range Types() {
		rate, ok := rates[t]
		if !ok || rate == 0 {
			continue
		}
		lambda := rate * 1e-9 * float64(totalDevices) * hours
		n := refPoisson(rng, lambda)
		for i := 0; i < n; i++ {
			out = refPlace(rng, out, t, hours, ranks, devicesPerRank)
		}
	}
	sortArrivals(out)
	return out
}

// refPoisson draws from a Poisson distribution with mean lambda by
// Knuth's method, with a normal approximation above a mean of 100.
func refPoisson(rng *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 100 {
		n := int(math.Round(lambda + math.Sqrt(lambda)*rng.NormFloat64()))
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// refPlace appends one arrival of type t at a uniform time and position.
func refPlace(rng *rand.Rand, out []Arrival, t Type, hours float64, ranks, devicesPerRank int) []Arrival {
	a := Arrival{
		AtHours: rng.Float64() * hours,
		Type:    t,
		Rank:    rng.Intn(ranks),
		Device:  rng.Intn(devicesPerRank),
	}
	if t == Lane {
		a.Rank = -1
	}
	return append(out, a)
}

// ExpectedArrivals returns the mean of the total arrival count
// SampleArrivalsInto draws: the sum over fault types of the channel-aggregated
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
