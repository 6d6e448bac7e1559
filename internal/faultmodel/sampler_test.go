package faultmodel

import (
	"math"
	"math/rand"
	"testing"
)

// The ref* functions are the per-call samplers as they stood before
// Sampler hoisted their per-process constants: every trial looked each
// rate up, recomputed each type's mean and e^{-mean}, and rebuilt the
// truncated-count and weight constants. TestSamplerMatchesReference pins
// Sampler to them bit for bit, so hoisting cannot move any result.

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

func refPlain(rng *rand.Rand, rates Rates, ranks, devicesPerRank int, years float64) []Arrival {
	hours := years * HoursPerYear
	totalDevices := ranks * devicesPerRank
	var out []Arrival
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

func refConditional(rng *rand.Rand, rates Rates, ranks, devicesPerRank int, years float64) ([]Arrival, float64) {
	hours := years * HoursPerYear
	perDevice := 1e-9 * float64(ranks*devicesPerRank) * hours
	var lambda float64
	for _, t := range Types() {
		lambda += rates[t] * perDevice
	}
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
	var out []Arrival
	for i := 0; i < n; i++ {
		u := rng.Float64() * lambda
		var typ Type
		for _, t := range Types() {
			lt := rates[t] * perDevice
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

func refTilted(rng *rand.Rand, rates Rates, tilt float64, ranks, devicesPerRank int, years float64) ([]Arrival, float64) {
	hours := years * HoursPerYear
	perDevice := 1e-9 * float64(ranks*devicesPerRank) * hours
	var out []Arrival
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

// TestSamplerMatchesReference draws the same trials from identically
// seeded generators through the reference samplers, through one Sampler
// built per process, and through the per-call wrappers, across rate
// tables that reach every count path: rare and field rates (Knuth draws
// and truncated-count inversion), inflated rates (conditional rejection
// above λ = 30, and per-type means above 100 for the normal
// approximation), and a table with missing, zero and negative entries.
// Field rates keep the tilted counts inside NewTiltedSampler's weight
// table and inflated rates take them past it.
func TestSamplerMatchesReference(t *testing.T) {
	odd := Rates{Bit: 40, Word: 0, Column: -3, Row: 9, Lane: 2}
	tables := map[string]Rates{
		"rare":     rareRates(),
		"field":    FieldStudyRates(),
		"x50":      FieldStudyRates().Scale(50),
		"x300":     FieldStudyRates().Scale(300),
		"odd":      odd,
		"odd-x300": odd.Scale(300),
	}
	geoms := []struct {
		ranks, devices int
		years          float64
	}{{2, 18, 7}, {1, 36, 3.5}, {4, 9, 0}}
	same := func(t *testing.T, what string, trial int, got, want []Arrival, gw, ww float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s trial %d: %d arrivals, reference %d", what, trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s trial %d arrival %d: %+v, reference %+v", what, trial, i, got[i], want[i])
			}
		}
		if math.Float64bits(gw) != math.Float64bits(ww) {
			t.Fatalf("%s trial %d: weight %v, reference %v", what, trial, gw, ww)
		}
	}
	for name, rates := range tables {
		for _, g := range geoms {
			for _, tilt := range []float64{0.7, 1, 3, 16} {
				seed := int64(len(name))*1000 + int64(g.ranks)*10 + int64(tilt)
				refRNG := rand.New(rand.NewSource(seed))
				smpRNG := rand.New(rand.NewSource(seed))
				wrapRNG := rand.New(rand.NewSource(seed))
				plain := NewSampler(rates, g.ranks, g.devices, g.years)
				tilted := NewTiltedSampler(rates, tilt, g.ranks, g.devices, g.years)
				checkSamplerMeans(t, name, plain, tilted, rates, tilt, g.ranks, g.devices, g.years)
				var buf, wbuf []Arrival
				for trial := 0; trial < 40; trial++ {
					want := refPlain(refRNG, rates, g.ranks, g.devices, g.years)
					got, w := plain.SampleInto(smpRNG, buf)
					same(t, name+" plain", trial, got, want, w, 1)
					wbuf = SampleArrivalsInto(wrapRNG, wbuf, rates, g.ranks, g.devices, g.years)
					same(t, name+" plain wrapper", trial, wbuf, want, 1, 1)

					want, ww := refTilted(refRNG, rates, tilt, g.ranks, g.devices, g.years)
					got, w = tilted.SampleInto(smpRNG, got)
					same(t, name+" tilted", trial, got, want, w, ww)
					wbuf, w = SampleArrivalsTiltedInto(wrapRNG, wbuf, rates, tilt, g.ranks, g.devices, g.years)
					same(t, name+" tilted wrapper", trial, wbuf, want, w, ww)
					buf = got
				}
				if g.years == 0 || rates.Total() <= 0 {
					continue
				}
				cond := NewConditionalSampler(rates, g.ranks, g.devices, g.years)
				for trial := 0; trial < 40; trial++ {
					want, ww := refConditional(refRNG, rates, g.ranks, g.devices, g.years)
					got, w := cond.SampleInto(smpRNG, buf)
					same(t, name+" conditional", trial, got, want, w, ww)
					wbuf, w = SampleArrivalsConditionalInto(wrapRNG, wbuf, rates, g.ranks, g.devices, g.years)
					same(t, name+" conditional wrapper", trial, wbuf, want, w, ww)
					buf = got
				}
			}
		}
	}
}

// checkSamplerMeans compares the per-type means the samplers hoisted
// with the reference expressions, bit for bit: a reassociated product
// changes a mean by an ulp, which a few dozen draws would rarely expose.
func checkSamplerMeans(t *testing.T, name string, plain, tilted *Sampler, rates Rates, tilt float64, ranks, devicesPerRank int, years float64) {
	t.Helper()
	hours := years * HoursPerYear
	perDevice := 1e-9 * float64(ranks*devicesPerRank) * hours
	i := 0
	for _, ty := range Types() {
		rate, ok := rates[ty]
		if !ok || rate == 0 {
			continue
		}
		plainMean := rate * 1e-9 * float64(ranks*devicesPerRank) * hours
		tiltMean := rate * perDevice * tilt
		if p, q := plain.types[i], tilted.types[i]; p.t != ty || q.t != ty ||
			math.Float64bits(p.mean) != math.Float64bits(plainMean) ||
			math.Float64bits(q.mean) != math.Float64bits(tiltMean) {
			t.Fatalf("%s: %v means %v (plain) and %v (tilt %v), reference %v and %v", name, ty, p.mean, q.mean, tilt, plainMean, tiltMean)
		}
		i++
	}
	if plain.n != i || tilted.n != i {
		t.Fatalf("%s: samplers hold %d and %d types, want %d", name, plain.n, tilted.n, i)
	}
}

// TestSamplerSampleIntoZeroAllocations extends the sampling allocation
// contract to a Sampler built once per process, in every proposal.
func TestSamplerSampleIntoZeroAllocations(t *testing.T) {
	rates := FieldStudyRates().Scale(50)
	for name, s := range map[string]*Sampler{
		"plain":       NewSampler(rates, 2, 36, 7),
		"conditional": NewConditionalSampler(rates, 2, 36, 7),
		"tilted":      NewTiltedSampler(rates, 4, 2, 36, 7),
	} {
		rng := rand.New(rand.NewSource(9))
		buf := make([]Arrival, 0, 1024)
		allocs := testing.AllocsPerRun(500, func() {
			buf, _ = s.SampleInto(rng, buf[:0])
		})
		if allocs != 0 {
			t.Errorf("%s: SampleInto allocates %v per draw, want 0", name, allocs)
		}
	}
}

func BenchmarkSamplerSampleInto(b *testing.B) {
	rates := FieldStudyRates()
	s := NewSampler(rates, 2, 36, 7)
	rng := rand.New(rand.NewSource(1))
	buf := make([]Arrival, 0, ArrivalCapHint(rates, 2, 36, 7))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf, _ = s.SampleInto(rng, buf[:0])
	}
}
