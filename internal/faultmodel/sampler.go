package faultmodel

import (
	"math"
	"math/rand"
)

// A Sampler draws the fault histories of one fixed arrival process — a
// rate table on a channel geometry over a lifespan — from one proposal:
// plain Poisson sampling (NewSampler), conditioned on at least one
// arrival (NewConditionalSampler), or with every rate scaled by a tilt
// factor (NewTiltedSampler). Everything that depends only on the process
// is computed once by the constructor: the nonzero-rate types in
// rate-table order with each type's Poisson mean and e^{-mean}, and the
// truncated-count and likelihood-ratio constants of the importance
// proposals. A lifetime Monte Carlo builds one Sampler per run, so its
// trials pay only for their draws, not for map lookups and exponentials
// that cannot change between trials.
//
// Each constant is computed by the same floating-point expression the
// per-call SampleArrivals*Into functions always used, and SampleInto
// consumes the rng exactly as they did, so a Sampler reproduces them bit
// for bit (TestSamplerMatchesReference). A Sampler is read-only after
// construction and safe for concurrent use.
type Sampler struct {
	mode           proposal
	ranks, devices int
	hours          float64
	// types[:n] are the sampled types. Plain and tilted: the types with a
	// nonzero rate, mean the Poisson mean of the type's count. Conditional:
	// the types with a positive mean, which is the type's share of lambda
	// in the categorical walk.
	types [NumTypes]typeMean
	n     int
	// lambda is the channel-aggregated arrival mean of the unscaled
	// process (conditional and tilted).
	lambda float64
	// Conditional: e^{-lambda} for the rejection path at lambda > 30,
	// P(N=1 | N>=1) = lambda/(e^lambda - 1) for inversion at lambda <= 30,
	// and the constant likelihood ratio 1 - e^{-lambda}.
	expNegLambda, p1, weight float64
	// Tilted: (tilt-1)·lambda and log(tilt), the two terms of the
	// likelihood ratio e^{(tilt-1)lambda} · tilt^{-n}, and tiltWeights[n]
	// that ratio for small n (NewTiltedSampler only; nil otherwise).
	tiltLambda, logTilt float64
	tiltWeights         []float64
}

type proposal uint8

const (
	plainProposal proposal = iota
	conditionalProposal
	tiltedProposal
)

// typeMean is one sampled fault type of a Sampler.
type typeMean struct {
	t      Type
	mean   float64
	expNeg float64 // e^{-mean}; unused by the conditional proposal
}

// init sets the fields every proposal shares. The per-call
// SampleArrivals*Into wrappers build their Sampler on the stack through
// the init methods, so they pay for no copy of it.
func (s *Sampler) init(mode proposal, ranks, devicesPerRank int, years float64) {
	if ranks <= 0 || devicesPerRank <= 0 || years < 0 {
		panic("faultmodel: invalid sampling parameters")
	}
	s.mode, s.ranks, s.devices, s.hours = mode, ranks, devicesPerRank, years*HoursPerYear
}

func (s *Sampler) add(t Type, mean, expNeg float64) {
	s.types[s.n] = typeMean{t: t, mean: mean, expNeg: expNeg}
	s.n++
}

// NewSampler returns the plain sampler of the process: for each fault
// type, a Poisson-distributed number of faults with the type's FIT rate
// aggregated over all devices, placed uniformly in time and on uniformly
// chosen devices. Every trajectory has weight 1. It panics on a
// non-positive geometry or a negative lifespan.
func NewSampler(rates Rates, ranks, devicesPerRank int, years float64) *Sampler {
	s := new(Sampler)
	s.initPlain(rates, ranks, devicesPerRank, years)
	return s
}

func (s *Sampler) initPlain(rates Rates, ranks, devicesPerRank int, years float64) {
	s.init(plainProposal, ranks, devicesPerRank, years)
	totalDevices := ranks * devicesPerRank
	for _, t := range Types() {
		rate, ok := rates[t]
		if !ok || rate == 0 {
			continue
		}
		lambda := rate * 1e-9 * float64(totalDevices) * s.hours
		s.add(t, lambda, math.Exp(-lambda))
	}
}

// NewConditionalSampler returns the sampler of the process conditioned on
// at least one arrival in the lifespan. The total count comes from the
// zero-truncated Poisson; each arrival's type is then categorical with
// probability proportional to the type's aggregated rate — the standard
// marked-Poisson factorization, so the conditional law exactly matches
// the plain sampler's given n >= 1. Every trajectory carries the
// likelihood ratio 1 - e^{-λ} against the unconditioned process. It
// panics on a bad geometry and when the aggregated rate is zero
// (conditioning on an impossible event).
func NewConditionalSampler(rates Rates, ranks, devicesPerRank int, years float64) *Sampler {
	s := new(Sampler)
	s.initConditional(rates, ranks, devicesPerRank, years)
	return s
}

func (s *Sampler) initConditional(rates Rates, ranks, devicesPerRank int, years float64) {
	s.init(conditionalProposal, ranks, devicesPerRank, years)
	perDevice := 1e-9 * float64(ranks*devicesPerRank) * s.hours
	for _, t := range Types() {
		lt := rates[t] * perDevice
		s.lambda += lt
		if lt > 0 {
			s.add(t, lt, 0)
		}
	}
	if s.lambda <= 0 {
		panic("faultmodel: conditional sampling of a zero-rate arrival process")
	}
	if s.lambda > 30 {
		s.expNegLambda = math.Exp(-s.lambda)
	} else {
		s.p1 = s.lambda / math.Expm1(s.lambda)
	}
	s.weight = -math.Expm1(-s.lambda) // 1 - e^{-λ}, accurate for small λ
}

// NewTiltedSampler returns the sampler of the process with every rate
// scaled by tilt. A trajectory with n arrivals carries the likelihood
// ratio e^{(tilt-1)λ} · tilt^{-n} against the unscaled process (λ the
// unscaled aggregated mean). tilt must be positive and finite; values
// above 1 make faults commoner and are the useful regime. It panics on a
// bad geometry or tilt.
// The ratio for n < 16 is tabulated here, by SampleInto's expression;
// the per-call SampleArrivalsTiltedInto draws one history and skips that.
func NewTiltedSampler(rates Rates, tilt float64, ranks, devicesPerRank int, years float64) *Sampler {
	s := new(Sampler)
	s.initTilted(rates, tilt, ranks, devicesPerRank, years)
	s.tiltWeights = make([]float64, 16)
	for n := range s.tiltWeights {
		s.tiltWeights[n] = math.Exp(s.tiltLambda - float64(n)*s.logTilt)
	}
	return s
}

func (s *Sampler) initTilted(rates Rates, tilt float64, ranks, devicesPerRank int, years float64) {
	s.init(tiltedProposal, ranks, devicesPerRank, years)
	if tilt <= 0 || math.IsNaN(tilt) || math.IsInf(tilt, 0) {
		panic("faultmodel: tilt factor must be positive and finite")
	}
	perDevice := 1e-9 * float64(ranks*devicesPerRank) * s.hours
	for _, t := range Types() {
		rate, ok := rates[t]
		if !ok || rate == 0 {
			continue
		}
		lt := rate * perDevice
		s.lambda += lt
		mean := lt * tilt
		s.add(t, mean, math.Exp(-mean))
	}
	s.tiltLambda = (tilt - 1) * s.lambda
	s.logTilt = math.Log(tilt)
}

// SampleInto draws one history into buf's capacity — buf's contents are
// ignored, its backing array is reused, and the filled slice, sorted by
// arrival time, is returned (reallocated only if the draw outgrows the
// capacity) — together with its likelihood ratio against the plain
// process (1 for the plain sampler). With an adequately sized buffer (see
// ArrivalCapHint) it performs no heap allocations.
func (s *Sampler) SampleInto(rng *rand.Rand, buf []Arrival) ([]Arrival, float64) {
	out := buf[:0]
	w := 1.0
	if s.mode == conditionalProposal {
		n := zeroTruncatedPoisson(rng, s.lambda, s.expNegLambda, s.p1)
		for i := 0; i < n; i++ {
			// Inverse-CDF walk over the per-type means; u lands past the
			// last bucket only through float rounding, in which case the
			// last type absorbs it.
			u := rng.Float64() * s.lambda
			var typ Type
			for _, tm := range s.types[:s.n] {
				typ = tm.t
				if u < tm.mean {
					break
				}
				u -= tm.mean
			}
			out = s.place(rng, out, typ, 1)
		}
		w = s.weight
	} else {
		for _, tm := range s.types[:s.n] {
			if n := poisson(rng, tm.mean, tm.expNeg); n > 0 {
				out = s.place(rng, out, tm.t, n)
			}
		}
		if n := len(out); n < len(s.tiltWeights) {
			w = s.tiltWeights[n]
		} else if s.mode == tiltedProposal {
			w = math.Exp(s.tiltLambda - float64(n)*s.logTilt)
		}
	}
	sortArrivals(out)
	return out, w
}

// place appends n arrivals of type t at uniform times and positions.
func (s *Sampler) place(rng *rand.Rand, out []Arrival, t Type, n int) []Arrival {
	for i := 0; i < n; i++ {
		a := Arrival{
			AtHours: rng.Float64() * s.hours,
			Type:    t,
			Rank:    rng.Intn(s.ranks),
			Device:  rng.Intn(s.devices),
		}
		if t == Lane {
			a.Rank = -1
		}
		out = append(out, a)
	}
	return out
}

// poisson draws from a Poisson distribution with mean lambda, given
// expNeg = e^{-lambda}. Knuth's method is exact and fast for the small
// lambdas (< 1) these simulations use; a normal approximation covers the
// large-lambda tail defensively.
func poisson(rng *rand.Rand, lambda, expNeg float64) int {
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
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= expNeg {
			return k
		}
		k++
	}
}

// zeroTruncatedPoisson draws from a Poisson(lambda) conditioned on a
// nonzero outcome, given expNeg = e^{-lambda} (used when lambda > 30) and
// p1 = lambda/(e^lambda - 1) (used otherwise). Small lambdas — the
// rare-fault regime this sampler exists for — use exact inversion on the
// truncated pmf; large lambdas fall back to rejection, where the zero
// outcome is vanishingly rare and the expected number of redraws is
// 1/(1-e^{-λ}) ≈ 1.
func zeroTruncatedPoisson(rng *rand.Rand, lambda, expNeg, p1 float64) int {
	if lambda > 30 {
		for {
			if n := poisson(rng, lambda, expNeg); n > 0 {
				return n
			}
		}
	}
	u := rng.Float64()
	p := p1 // P(N=1 | N>=1)
	cdf := p
	k := 1
	for u > cdf {
		k++
		p *= lambda / float64(k)
		cdf += p
		if p == 0 {
			// Float underflow: the remaining mass is below representable
			// precision, so u can only be rounding error past the cdf.
			break
		}
	}
	return k
}
