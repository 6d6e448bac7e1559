package faultmodel

import (
	"math"

	"arcc/internal/rng"
)

// A Sampler draws the fault histories of one fixed arrival process — a
// rate table on a channel geometry over a lifespan — from one proposal:
// plain Poisson sampling (NewSampler), conditioned on at least one
// arrival (NewConditionalSampler), or with every rate scaled by a tilt
// factor (NewTiltedSampler). Everything that depends only on the process
// is computed once by the constructor: the nonzero-rate types in
// rate-table order with each type's Poisson mean, e^{-mean} and zero
// threshold, the rejection bounds of the rank and device draws, and the
// truncated-count and likelihood-ratio constants of the importance
// proposals. A lifetime Monte Carlo builds one Sampler per run, so its
// trials pay only for their draws, not for map lookups, exponentials and
// divisions that cannot change between trials.
//
// The zero threshold makes the common trial cheap: at field rates most
// channels draw no fault at all, and a type's count is 0 exactly when
// the first uniform of Knuth's product is at most e^{-mean}. Float64 is
// a monotone function of the Int63 it divides by 2^63, so that test is
// one integer compare of the raw draw against the largest Int63 whose
// Float64 is at most e^{-mean} (zeroThreshold), found by evaluating that
// very comparison: it is exact, not an approximation of it. The
// thresholds sit in one array, and each run of consecutive Knuth types
// (0 < mean <= 100; at field rates, all seven) draws its first uniforms
// in one rng.Source.Int63sAtMost call, which stops at the first type
// whose draw is above its threshold; that type continues Knuth's product
// from the draw, and the run resumes after it. When the types form one
// such run, an empty plain or tilted trial is one run of those draws,
// and SampleNextInto draws a Monte Carlo shard's consecutive empty trials
// in one rng.Source.Int63RunsAtMost call, eight draws per instruction on
// CPUs with AVX-512F: 64 empty trials of seven types take about 270 ns
// there, against 680–760 ns for 64 Int63sAtMost calls
// (BenchmarkEmptyRuns, 2-vCPU Xeon).
//
// Each constant is computed by the same floating-point expression the
// per-call SampleArrivals*Into functions use, and SampleInto consumes an
// rng.Source exactly as they consume a *rand.Rand over the same seed, so
// a Sampler reproduces them bit for bit (TestSamplerMatchesReference). A
// Sampler is read-only after construction and safe for concurrent use.
type Sampler struct {
	mode proposal
	// rank and device are the ranges of an arrival's rank and device,
	// with their Intn rejection bounds.
	rank, device rng.Bound
	hours        float64
	// types[:n] are the sampled types. Plain and tilted: the types with a
	// nonzero rate, mean the Poisson mean of the type's count. Conditional:
	// the types with a positive mean, which is the type's share of lambda
	// in the categorical walk.
	types [NumTypes]typeMean
	n     int
	// zeroMax[:n] are the types' zero thresholds, zeroThreshold(expNeg),
	// in one array so that a run of Knuth types hands its thresholds to
	// rng.Source.Int63sAtMost as one slice. Unused by the conditional
	// proposal.
	zeroMax [NumTypes]int64
	// oneRun is set when the plain or tilted proposal's types form one
	// run of Knuth types (or there are none), and runs is then the
	// rng.RunBounds of zeroMax[:n]: SampleNextInto draws empty trials
	// with it.
	oneRun bool
	runs   rng.RunBounds
	// lambda is the channel-aggregated arrival mean of the unscaled
	// process (conditional and tilted).
	lambda float64
	// Conditional: e^{-lambda} and its zero threshold for the rejection
	// path at lambda > 30, P(N=1 | N>=1) = lambda/(e^lambda - 1) for
	// inversion at lambda <= 30, and the constant likelihood ratio
	// 1 - e^{-lambda}.
	expNegLambda, p1, weight float64
	zeroMaxLambda            int64
	// Tilted: (tilt-1)·lambda and log(tilt), the two terms of the
	// likelihood ratio e^{(tilt-1)lambda} · tilt^{-n}, and tiltWeights[n]
	// that ratio for small n (nil for the other proposals).
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
	// runEnd is 0 unless poisson draws the count by Knuth's method
	// (0 < mean <= 100), where a first draw at most the type's zero
	// threshold is a count of 0. It is then one past the last type of the
	// run of consecutive Knuth types that holds this one. Unused by the
	// conditional proposal.
	runEnd int
}

func newSampler(mode proposal, ranks, devicesPerRank int, years float64) *Sampler {
	checkGeometry(ranks, devicesPerRank, years)
	return &Sampler{mode: mode, rank: rng.NewBound(ranks), device: rng.NewBound(devicesPerRank), hours: years * HoursPerYear}
}

func (s *Sampler) add(t Type, mean, expNeg float64) {
	i := s.n
	s.types[i] = typeMean{t: t, mean: mean, expNeg: expNeg}
	s.zeroMax[i] = zeroThreshold(expNeg)
	s.n++
	if mean > 0 && mean <= 100 {
		// A Knuth type ends its run, extending the run before it if any.
		s.types[i].runEnd = i + 1
		for j := i - 1; j >= 0 && s.types[j].runEnd == i; j-- {
			s.types[j].runEnd = i + 1
		}
	}
}

// checkGeometry panics on a geometry or lifespan no channel can have.
func checkGeometry(ranks, devicesPerRank int, years float64) {
	if ranks <= 0 || devicesPerRank <= 0 || years < 0 {
		panic("faultmodel: invalid sampling parameters")
	}
}

// NewSampler returns the plain sampler of the process: for each fault
// type, a Poisson-distributed number of faults with the type's FIT rate
// aggregated over all devices, placed uniformly in time and on uniformly
// chosen devices. Every trajectory has weight 1. It panics on a
// non-positive geometry or a negative lifespan.
func NewSampler(rates Rates, ranks, devicesPerRank int, years float64) *Sampler {
	s := newSampler(plainProposal, ranks, devicesPerRank, years)
	totalDevices := ranks * devicesPerRank
	for _, t := range Types() {
		rate, ok := rates[t]
		if !ok || rate == 0 {
			continue
		}
		lambda := rate * 1e-9 * float64(totalDevices) * s.hours
		s.add(t, lambda, math.Exp(-lambda))
	}
	s.initRuns()
	return s
}

// initRuns sets oneRun and runs once a plain or tilted sampler has all
// its types.
func (s *Sampler) initRuns() {
	if s.n == 0 || s.types[0].runEnd == s.n {
		s.oneRun = true
		s.runs = rng.NewRunBounds(s.zeroMax[:s.n])
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
	s := newSampler(conditionalProposal, ranks, devicesPerRank, years)
	perDevice := 1e-9 * float64(ranks*devicesPerRank) * s.hours
	for _, t := range Types() {
		lt := rates[t] * perDevice
		s.lambda += lt
		if lt > 0 {
			s.add(t, lt, 0)
		}
	}
	checkConditional(s.lambda)
	if s.lambda > 30 {
		s.expNegLambda = math.Exp(-s.lambda)
		s.zeroMaxLambda = zeroThreshold(s.expNegLambda)
	} else {
		s.p1 = s.lambda / math.Expm1(s.lambda)
	}
	s.weight = -math.Expm1(-s.lambda) // 1 - e^{-λ}, accurate for small λ
	return s
}

// checkConditional panics when there is no arrival to condition on.
func checkConditional(lambda float64) {
	if lambda <= 0 {
		panic("faultmodel: conditional sampling of a zero-rate arrival process")
	}
}

// NewTiltedSampler returns the sampler of the process with every rate
// scaled by tilt. A trajectory with n arrivals carries the likelihood
// ratio e^{(tilt-1)λ} · tilt^{-n} against the unscaled process (λ the
// unscaled aggregated mean). tilt must be positive and finite; values
// above 1 make faults commoner and are the useful regime. It panics on a
// bad geometry or tilt. The ratio for n < 16 is tabulated here, by
// SampleInto's expression.
func NewTiltedSampler(rates Rates, tilt float64, ranks, devicesPerRank int, years float64) *Sampler {
	s := newSampler(tiltedProposal, ranks, devicesPerRank, years)
	checkTilt(tilt)
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
	s.tiltWeights = make([]float64, 16)
	for n := range s.tiltWeights {
		s.tiltWeights[n] = math.Exp(s.tiltLambda - float64(n)*s.logTilt)
	}
	s.initRuns()
	return s
}

// checkTilt panics on a tilt factor that is not a likelihood scale.
func checkTilt(tilt float64) {
	if tilt <= 0 || math.IsNaN(tilt) || math.IsInf(tilt, 0) {
		panic("faultmodel: tilt factor must be positive and finite")
	}
}

// SampleInto draws one history into buf's capacity — buf's contents are
// ignored, its backing array is reused, and the filled slice, sorted by
// arrival time, is returned (reallocated only if the draw outgrows the
// capacity) — together with its likelihood ratio against the plain
// process (1 for the plain sampler). With an adequately sized buffer (see
// ArrivalCapHint) it performs no heap allocations.
func (s *Sampler) SampleInto(src *rng.Source, buf []Arrival) ([]Arrival, float64) {
	if s.mode != conditionalProposal {
		return s.sampleFrom(src, buf, 0, -1)
	}
	out := buf[:0]
	n := zeroTruncatedPoisson(src, s.lambda, s.expNegLambda, s.zeroMaxLambda, s.p1)
	for i := 0; i < n; i++ {
		// Inverse-CDF walk over the per-type means; u lands past the
		// last bucket only through float rounding, in which case the
		// last type absorbs it.
		u := src.Float64() * s.lambda
		var typ Type
		for _, tm := range s.types[:s.n] {
			typ = tm.t
			if u < tm.mean {
				break
			}
			u -= tm.mean
		}
		out = s.place(src, out, typ, 1)
	}
	sortArrivals(out)
	return out, s.weight
}

// SampleNextInto draws trials as SampleInto does until one has an
// arrival, at most max (>= 1) of them, and returns how many empty
// trials came first. When that is below max, it also returns the next
// trial's history (into buf, as SampleInto) and likelihood ratio;
// otherwise an empty history. The stream advances exactly as that many
// SampleInto calls. A plain or tilted sampler whose types form one run
// of Knuth types draws the empty trials' first uniforms in one
// rng.Source.Int63RunsAtMost call, and the trial that ends the run goes
// on from the draw above its type's threshold, as in SampleInto. Every
// other sampler returns 0 empty trials and SampleInto's next trial,
// empty or not (a conditional trial never is).
func (s *Sampler) SampleNextInto(src *rng.Source, buf []Arrival, max int) (empty int, out []Arrival, w float64) {
	if !s.oneRun {
		out, w = s.SampleInto(src, buf)
		return 0, out, w
	}
	k, i, x := src.Int63RunsAtMost(&s.runs, max)
	if k == max {
		return max, buf[:0], 0
	}
	out, w = s.sampleFrom(src, buf, i, x)
	return k, out, w
}

// Weight returns the likelihood ratio against the plain process of a
// trial with n arrivals, as SampleInto returns it: 1 for the plain
// sampler, e^{(tilt-1)λ} · tilt^{-n} for the tilted one (tabulated for
// n < 16) and 1 - e^{-λ} for the conditional one.
func (s *Sampler) Weight(n int) float64 {
	switch {
	case s.mode == conditionalProposal:
		return s.weight
	case n < len(s.tiltWeights):
		return s.tiltWeights[n]
	case s.mode == tiltedProposal:
		return math.Exp(s.tiltLambda - float64(n)*s.logTilt)
	}
	return 1
}

// sampleFrom draws a plain or tilted trial from type i on, the types
// before it having drawn 0. When x >= 0 it is type i's first draw, made
// already and above the type's zero threshold; x < 0 means type i has
// not drawn yet.
func (s *Sampler) sampleFrom(src *rng.Source, buf []Arrival, i int, x int64) ([]Arrival, float64) {
	out := buf[:0]
	for i < s.n {
		tm := &s.types[i]
		n := 0
		switch {
		case x >= 0:
			n, x = knuthPastZero(src, x, tm.expNeg), -1
		case tm.runEnd == 0:
			n = poisson(src, tm.mean, tm.expNeg, s.zeroMax[i])
		default:
			// poisson for the rest of the run, with the test for a count
			// of 0 in one call: its types draw 0 up to the first whose
			// draw is above its zero threshold, which continues Knuth's
			// product from that draw (x, -1 when none is above).
			var k int
			k, x = src.Int63sAtMost(s.zeroMax[i:tm.runEnd])
			i += k
			continue
		}
		if n > 0 {
			out = s.place(src, out, tm.t, n)
		}
		i++
	}
	sortArrivals(out)
	return out, s.Weight(len(out))
}

// place appends n arrivals of type t at uniform times and positions.
func (s *Sampler) place(src *rng.Source, out []Arrival, t Type, n int) []Arrival {
	for i := 0; i < n; i++ {
		a := Arrival{
			AtHours: src.Float64() * s.hours,
			Type:    t,
			Rank:    src.Below(s.rank),
			Device:  src.Below(s.device),
		}
		if t == Lane {
			a.Rank = -1
		}
		out = append(out, a)
	}
	return out
}

// poisson draws from a Poisson distribution with mean lambda, given
// expNeg = e^{-lambda} and zeroMax = zeroThreshold(expNeg). Knuth's
// method is exact and fast for the small lambdas (< 1) these simulations
// use, and its first draw alone decides a count of 0: one compare with
// zeroMax. A normal approximation covers the large-lambda tail
// defensively, and a lambda <= 0 draws nothing.
func poisson(src *rng.Source, lambda, expNeg float64, zeroMax int64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 100 {
		n := int(math.Round(lambda + math.Sqrt(lambda)*src.NormFloat64()))
		if n < 0 {
			return 0
		}
		return n
	}
	x := src.Int63()
	if x <= zeroMax {
		return 0
	}
	return knuthPastZero(src, x, expNeg)
}

// knuthPastZero finishes Knuth's method for a Poisson count with
// e^{-mean} = expNeg whose first draw x is above the zero threshold. The
// product continues from x's Float64. A draw above the threshold can
// round up to 1, which Float64 resamples; the resampled uniform is then
// the first factor, and may still make the count 0.
func knuthPastZero(src *rng.Source, x int64, expNeg float64) int {
	p := float64(x) / (1 << 63)
	if p == 1 {
		if p = src.Float64(); p <= expNeg {
			return 0
		}
	}
	k := 1
	for {
		p *= src.Float64()
		if p <= expNeg {
			return k
		}
		k++
	}
}

// zeroThreshold returns the largest Int63 draw x that Float64 returns as
// float64(x)/2^63 (the draws that round up to 1 it resamples) with that
// value at most expNeg, or -1 when there is none (expNeg NaN). Float64 is
// non-decreasing in x, so Knuth's first product is at most e^{-mean}, a
// count of 0, exactly when the draw is at most the threshold. The binary
// search evaluates that very comparison on every candidate, so the
// threshold is exact.
func zeroThreshold(expNeg float64) int64 {
	lo, hi := int64(-1), int64(math.MaxInt64)
	for lo < hi {
		mid := lo + int64((uint64(hi-lo)+1)/2) // in (lo, hi], without overflow
		if f := float64(mid) / (1 << 63); f != 1 && f <= expNeg {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// zeroTruncatedPoisson draws from a Poisson(lambda) conditioned on a
// nonzero outcome, given expNeg = e^{-lambda} and zeroMax =
// zeroThreshold(expNeg) (used when lambda > 30) and p1 =
// lambda/(e^lambda - 1) (used otherwise). Small lambdas — the rare-fault
// regime this sampler exists for — use exact inversion on the truncated
// pmf; large lambdas fall back to rejection, where the zero outcome is
// vanishingly rare and the expected number of redraws is
// 1/(1-e^{-λ}) ≈ 1.
func zeroTruncatedPoisson(src *rng.Source, lambda, expNeg float64, zeroMax int64, p1 float64) int {
	if lambda > 30 {
		for {
			if n := poisson(src, lambda, expNeg, zeroMax); n > 0 {
				return n
			}
		}
	}
	u := src.Float64()
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
