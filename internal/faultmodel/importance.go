package faultmodel

import (
	"math"
	"math/rand"
)

// Importance-sampled fault histories. At field rates a channel usually
// sees zero faults over its whole lifespan, so naive Monte Carlo spends
// nearly every trial confirming that nothing happened — useless for the
// tail statistics the lifetime figures are after. The samplers in this
// file draw from a *proposal* arrival process under which faults are
// common and return, alongside the trajectory, its exact likelihood ratio
// against the unconditioned Poisson process SampleArrivalsInto draws from.
// Estimators weight each trial by that ratio and stay unbiased (see
// DESIGN.md "Rare-event acceleration" for the derivation).
//
// Both ratios are closed-form because the arrival process is Poisson:
//
//   - Conditional ("at least one fault"): every sampled trajectory has
//     n >= 1 and carries the constant weight 1 - e^{-λ}, where λ is the
//     channel-aggregated arrival mean. The zero-fault stratum is left to
//     the caller — for any statistic with f(no faults) = 0 it contributes
//     exactly nothing, so the weighted mean alone is the full estimate.
//   - Rate-tilted (rates scaled by θ): a trajectory with n total arrivals
//     carries weight e^{(θ-1)λ} · θ^{-n} — the per-type Poisson count
//     ratios multiplied out; arrival times and device positions are
//     uniform under both processes and cancel.

// SampleArrivalsConditionalInto draws a fault history conditioned on at
// least one arrival in the lifespan into buf's capacity (contents
// ignored, backing array reused), returning the sorted trajectory and its
// likelihood ratio 1 - e^{-λ} against the unconditioned process. It
// panics on a bad geometry and when the aggregated rate is zero
// (conditioning on an impossible event). Like SampleArrivalsInto it is a
// per-call reference sampler; Monte Carlo loops over one process build
// NewConditionalSampler once instead.
func SampleArrivalsConditionalInto(rng *rand.Rand, buf []Arrival, rates Rates, ranks, devicesPerRank int, years float64) ([]Arrival, float64) {
	checkGeometry(ranks, devicesPerRank, years)
	hours := years * HoursPerYear
	perDevice := 1e-9 * float64(ranks*devicesPerRank) * hours
	var lts [NumTypes]float64
	var lambda float64
	for _, t := range Types() {
		lts[t] = rates[t] * perDevice
		lambda += lts[t]
	}
	checkConditional(lambda)
	var n int
	if lambda > 30 {
		for n == 0 {
			n = refPoisson(rng, lambda)
		}
	} else {
		u := rng.Float64()
		p := lambda / math.Expm1(lambda)
		cdf := p
		n = 1
		for u > cdf {
			n++
			p *= lambda / float64(n)
			cdf += p
			if p == 0 {
				break
			}
		}
	}
	out := buf[:0]
	for i := 0; i < n; i++ {
		u := rng.Float64() * lambda
		var typ Type
		for _, t := range Types() {
			lt := lts[t]
			if lt <= 0 {
				continue
			}
			typ = t
			if u < lt {
				break
			}
			u -= lt
		}
		out = refPlace(rng, out, typ, hours, ranks, devicesPerRank)
	}
	sortArrivals(out)
	return out, -math.Expm1(-lambda)
}

// SampleArrivalsTiltedInto draws a fault history under rates scaled by
// tilt into buf's capacity (contents ignored, backing array reused) and
// returns the sorted trajectory with its likelihood ratio
// e^{(tilt-1)λ} · tilt^{-n} against the unscaled process (λ the unscaled
// aggregated mean, n the trajectory's arrival count). tilt must be
// positive and finite. Like SampleArrivalsInto it is a per-call
// reference sampler; Monte Carlo loops over one process build
// NewTiltedSampler once instead.
func SampleArrivalsTiltedInto(rng *rand.Rand, buf []Arrival, rates Rates, tilt float64, ranks, devicesPerRank int, years float64) ([]Arrival, float64) {
	checkGeometry(ranks, devicesPerRank, years)
	checkTilt(tilt)
	hours := years * HoursPerYear
	perDevice := 1e-9 * float64(ranks*devicesPerRank) * hours
	out := buf[:0]
	var lambda float64
	for _, t := range Types() {
		rate, ok := rates[t]
		if !ok || rate == 0 {
			continue
		}
		lt := rate * perDevice
		lambda += lt
		n := refPoisson(rng, lt*tilt)
		for i := 0; i < n; i++ {
			out = refPlace(rng, out, t, hours, ranks, devicesPerRank)
		}
	}
	sortArrivals(out)
	return out, math.Exp((tilt-1)*lambda - float64(len(out))*math.Log(tilt))
}
