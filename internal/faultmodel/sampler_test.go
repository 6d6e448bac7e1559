package faultmodel

import (
	"math"
	"math/rand"
	"testing"

	"arcc/internal/rng"
)

// TestSamplerMatchesReference draws the same trials through one Sampler
// built per process, on an rng.Source seeded s, and through the per-call
// reference samplers on rand.New(rand.NewSource(s)), across rate tables
// that reach every count path: rare and field rates (Knuth draws and
// truncated-count inversion), inflated rates (conditional rejection
// above λ = 30, and per-type means above 100 for the normal
// approximation), a table with missing, zero and negative entries, and
// one whose Column mean passes 100 between Knuth types, so a run of
// Knuth types ends before it and another starts after it. Field rates
// keep the tilted counts inside NewTiltedSampler's weight table and
// inflated rates take them past it. It also pins every zero threshold
// and Knuth run the samplers hold.
func TestSamplerMatchesReference(t *testing.T) {
	odd := Rates{Bit: 40, Word: 0, Column: -3, Row: 9, Lane: 2}
	tables := map[string]Rates{
		"rare":     rareRates(),
		"field":    FieldStudyRates(),
		"x50":      FieldStudyRates().Scale(50),
		"x300":     FieldStudyRates().Scale(300),
		"odd":      odd,
		"odd-x300": odd.Scale(300),
		"split":    {Bit: 40, Word: 0, Column: 68000, Row: 9, Bank: 20, Lane: 2},
	}
	geoms := []struct {
		ranks, devices int
		years          float64
	}{{2, 18, 7}, {1, 36, 3.5}, {4, 9, 0}}
	for name, rates := range tables {
		for _, g := range geoms {
			for _, tilt := range []float64{0.7, 1, 3, 16} {
				seed := int64(len(name))*1000 + int64(g.ranks)*10 + int64(tilt)
				plain := NewSampler(rates, g.ranks, g.devices, g.years)
				tilted := NewTiltedSampler(rates, tilt, g.ranks, g.devices, g.years)
				checkSamplerMeans(t, name, plain, tilted, rates, tilt, g.ranks, g.devices, g.years)
				checkZeroThresholds(t, name+" plain", plain)
				checkZeroThresholds(t, name+" tilted", tilted)
				checkSamplerDraws(t, name+" plain", plain, seed, 40, func(ref *rand.Rand, buf []Arrival) ([]Arrival, float64) {
					return SampleArrivalsInto(ref, buf, rates, g.ranks, g.devices, g.years), 1
				})
				checkSamplerDraws(t, name+" tilted", tilted, seed, 40, func(ref *rand.Rand, buf []Arrival) ([]Arrival, float64) {
					return SampleArrivalsTiltedInto(ref, buf, rates, tilt, g.ranks, g.devices, g.years)
				})
				if g.years == 0 || totalRate(rates) <= 0 {
					continue
				}
				cond := NewConditionalSampler(rates, g.ranks, g.devices, g.years)
				checkZeroThresholds(t, name+" conditional", cond)
				checkSamplerDraws(t, name+" conditional", cond, seed, 40, func(ref *rand.Rand, buf []Arrival) ([]Arrival, float64) {
					return SampleArrivalsConditionalInto(ref, buf, rates, g.ranks, g.devices, g.years)
				})
			}
		}
	}
}

// FuzzSamplerMatchesReference lets the fuzzer pick the seed, each
// type's rate (present or missing, zero, negative, or large enough for a
// mean near 100 or past it, the normal approximation's side), the
// channel geometry, the lifespan and the proposal, and requires the
// Sampler on an rng.Source to draw what the per-call reference sampler
// draws on math/rand, arrival for arrival and weight for weight, and
// its zero thresholds to meet their definition. Inputs whose means are
// not finite or would draw thousands of arrivals per trial are skipped.
func FuzzSamplerMatchesReference(f *testing.F) {
	// Field rates; an odd table; Bit means either side of 100 (2×36
	// devices, 7 years: 22,600 FIT is a mean of 99.8, 22,700 one of
	// 100.3); tiny means whose e^{-mean} rounds to 1; and a conditional
	// λ of 38.
	field := FieldStudyRates()
	f.Add(int64(1), uint8(0x7f), field[Bit], field[Word], field[Column], field[Row], field[Bank], field[Device], field[Lane], uint8(2), uint8(36), 7.0, uint8(0), 1.0)
	f.Add(int64(2), uint8(0x7f), field[Bit], field[Word], field[Column], field[Row], field[Bank], field[Device], field[Lane], uint8(2), uint8(36), 7.0, uint8(1), 1.0)
	f.Add(int64(3), uint8(0x7f), field[Bit], field[Word], field[Column], field[Row], field[Bank], field[Device], field[Lane], uint8(2), uint8(18), 7.0, uint8(2), 16.0)
	f.Add(int64(4), uint8(0x5d), 40.0, 0.0, -3.0, 9.0, 0.0, 0.0, 2.0, uint8(4), uint8(9), 3.5, uint8(0), 1.0)
	f.Add(int64(5), uint8(0x01), 22600.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, uint8(2), uint8(36), 7.0, uint8(0), 1.0)
	f.Add(int64(6), uint8(0x03), 22700.0, 300.0, 0.0, 0.0, 0.0, 0.0, 0.0, uint8(2), uint8(36), 7.0, uint8(2), 0.99)
	f.Add(int64(7), uint8(0x7f), 1e-12, 1e-15, 2e-13, 1e-12, 1e-12, 1e-12, 1e-12, uint8(1), uint8(1), 1.0, uint8(0), 1.0)
	f.Add(int64(8), uint8(0x7f), 4000.0, 1200.0, 2400.0, 3600.0, 4000.0, 1200.0, 800.0, uint8(2), uint8(18), 7.0, uint8(1), 1.0)
	// A Column mean of 177 (2×36 devices, 7 years) between Knuth types,
	// and a zero Device rate, plain and tilted.
	f.Add(int64(9), uint8(0x7f), 40.0, 1.0, 40000.0, 9.0, 20.0, 0.0, 2.0, uint8(1), uint8(35), 7.0, uint8(0), 1.0)
	f.Add(int64(10), uint8(0x7f), 40.0, 1.0, 40000.0, 9.0, 20.0, 0.0, 2.0, uint8(1), uint8(35), 7.0, uint8(2), 1.5)
	f.Fuzz(func(t *testing.T, seed int64, present uint8, bit, word, column, row, bank, device, lane float64,
		ranks, devices uint8, years float64, mode uint8, tilt float64) {
		r, d := int(ranks%8)+1, int(devices%72)+1
		if math.IsNaN(years) || years < 0 || years > 50 {
			t.Skip("lifespan outside [0, 50] years")
		}
		if math.IsNaN(tilt) || tilt <= 0 || tilt > 1e3 {
			t.Skip("tilt outside (0, 1000]")
		}
		rates := Rates{}
		for i, v := range []float64{bit, word, column, row, bank, device, lane} {
			if present&(1<<i) != 0 {
				rates[Type(i)] = v
			}
		}
		perDevice := 1e-9 * float64(r*d) * (years * HoursPerYear)
		var lambda, spread float64
		for _, ty := range Types() {
			lambda += rates[ty] * perDevice
			spread += math.Abs(rates[ty] * perDevice * max(tilt, 1))
		}
		if math.IsNaN(spread) || spread > 500 {
			t.Skip("means sum past 500 arrivals per trial")
		}
		var s *Sampler
		var ref func(*rand.Rand, []Arrival) ([]Arrival, float64)
		switch mode % 3 {
		case 0:
			s = NewSampler(rates, r, d, years)
			ref = func(rr *rand.Rand, buf []Arrival) ([]Arrival, float64) {
				return SampleArrivalsInto(rr, buf, rates, r, d, years), 1
			}
		case 1:
			if lambda <= 0 {
				t.Skip("conditioning on no arrivals")
			}
			s = NewConditionalSampler(rates, r, d, years)
			ref = func(rr *rand.Rand, buf []Arrival) ([]Arrival, float64) {
				return SampleArrivalsConditionalInto(rr, buf, rates, r, d, years)
			}
		case 2:
			s = NewTiltedSampler(rates, tilt, r, d, years)
			ref = func(rr *rand.Rand, buf []Arrival) ([]Arrival, float64) {
				return SampleArrivalsTiltedInto(rr, buf, rates, tilt, r, d, years)
			}
		}
		checkZeroThresholds(t, "fuzz", s)
		checkSamplerDraws(t, "fuzz", s, seed, 20, ref)
	})
}

// totalRate returns the summed FIT rate across all fault types.
func totalRate(r Rates) float64 {
	var sum float64
	for _, v := range r {
		sum += v
	}
	return sum
}

// checkSamplerDraws draws trials histories from s on an rng.Source
// seeded seed and from ref, the matching per-call reference sampler, on
// rand.New(rand.NewSource(seed)), and requires the same arrivals and
// bit-identical weights trial by trial.
func checkSamplerDraws(t testing.TB, what string, s *Sampler, seed int64, trials int, ref func(*rand.Rand, []Arrival) ([]Arrival, float64)) {
	t.Helper()
	var src rng.Source
	src.Seed(seed)
	refRNG := rand.New(rand.NewSource(seed))
	var buf, wbuf []Arrival
	for trial := 0; trial < trials; trial++ {
		want, ww := ref(refRNG, wbuf)
		got, gw := s.SampleInto(&src, buf)
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
		buf, wbuf = got, want
	}
}

// checkZeroThresholds pins each zero threshold s holds to its definition:
// the largest Int63 draw whose Float64 (float64(x)/2^63, a draw that
// rounds up to 1 being resampled) is at most the threshold's e^{-mean}.
// So zeroMax itself maps to a value below 1 and at most expNeg, and
// zeroMax+1 maps above expNeg or rounds up to 1. It also pins each
// type's runEnd: 0 for a type poisson does not draw by Knuth's method,
// and otherwise the end of the longest run of consecutive Knuth types
// that holds it.
func checkZeroThresholds(t testing.TB, what string, s *Sampler) {
	t.Helper()
	check := func(label string, expNeg float64, zeroMax int64) {
		t.Helper()
		if zeroMax < 0 || zeroMax == math.MaxInt64 {
			t.Fatalf("%s %s: zero threshold %d for e^-mean %v", what, label, zeroMax, expNeg)
		}
		if f := float64(zeroMax) / (1 << 63); f > expNeg || f == 1 {
			t.Fatalf("%s %s: zero threshold %d maps to %v, above e^-mean %v", what, label, zeroMax, f, expNeg)
		}
		if f := float64(zeroMax+1) / (1 << 63); f <= expNeg && f != 1 {
			t.Fatalf("%s %s: draw %d past the zero threshold maps to %v, at most e^-mean %v", what, label, zeroMax+1, f, expNeg)
		}
	}
	if s.mode == conditionalProposal {
		if s.lambda > 30 {
			check("lambda", s.expNegLambda, s.zeroMaxLambda)
		}
		return
	}
	knuth := func(i int) bool { return s.types[i].mean > 0 && s.types[i].mean <= 100 }
	for i, tm := range s.types[:s.n] {
		check(tm.t.String(), tm.expNeg, s.zeroMax[i])
		end := 0
		if knuth(i) {
			for end = i + 1; end < s.n && knuth(end); end++ {
			}
		}
		if tm.runEnd != end {
			t.Fatalf("%s %v: run ends at %d, want %d", what, tm.t, tm.runEnd, end)
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

// TestSampleNextIntoMatchesSampleInto draws the same trials through
// SampleNextInto, with a random trial budget per call, and through
// SampleInto calls on a Source seeded alike: the empty trials it skips
// must be empty SampleInto trials, the trial it returns must be the next
// SampleInto trial, arrival for arrival and weight for weight, and both
// Sources must end in the same state. The samplers cover one run of
// Knuth types (rare and field rates, plain and tilted, where runs of
// empty trials are long), samplers it must not skip for (a Column mean
// past 100 that splits the run, and the conditional proposal), and one
// with no types at all, whose trials are all empty and draw nothing.
func TestSampleNextIntoMatchesSampleInto(t *testing.T) {
	split := Rates{Bit: 40, Word: 0, Column: 68000, Row: 9, Bank: 20, Lane: 2}
	samplers := map[string]*Sampler{
		"rare":              NewSampler(rareRates(), 2, 18, 7),
		"field":             NewSampler(FieldStudyRates(), 2, 18, 7),
		"field x4":          NewSampler(FieldStudyRates().Scale(4), 2, 36, 7),
		"field tilted":      NewTiltedSampler(FieldStudyRates(), 8, 2, 18, 7),
		"rare tilted below": NewTiltedSampler(rareRates(), 0.5, 1, 36, 3.5),
		"split":             NewSampler(split, 2, 18, 7),
		"split tilted":      NewTiltedSampler(split, 3, 2, 18, 7),
		"conditional":       NewConditionalSampler(FieldStudyRates(), 2, 18, 7),
		"no types":          NewSampler(Rates{}, 2, 18, 7),
	}
	wantOneRun := map[string]bool{"rare": true, "field": true, "field x4": true, "field tilted": true, "rare tilted below": true, "no types": true}
	pick := rand.New(rand.NewSource(8))
	bits := math.Float64bits
	for name, s := range samplers {
		if s.oneRun != wantOneRun[name] {
			t.Fatalf("%s: oneRun = %v, want %v", name, s.oneRun, wantOneRun[name])
		}
		var got, want rng.Source
		got.Seed(int64(len(name)))
		want.Seed(int64(len(name)))
		gbuf, wbuf := make([]Arrival, 0, 8), make([]Arrival, 0, 8)
		skipped, drawn := 0, 0
		for call := 0; call < 400; call++ {
			max := 1 + pick.Intn(80)
			empty, out, w := s.SampleNextInto(&got, gbuf, max)
			gbuf = out
			if empty < 0 || empty > max || !s.oneRun && empty != 0 {
				t.Fatalf("%s call %d: %d empty trials of at most %d", name, call, empty, max)
			}
			for j := 0; j < empty; j++ {
				ref, rw := s.SampleInto(&want, wbuf)
				if len(ref) != 0 || bits(rw) != bits(s.Weight(0)) {
					t.Fatalf("%s call %d: skipped trial %d has %d arrivals and weight %v (Weight(0) = %v)", name, call, j, len(ref), rw, s.Weight(0))
				}
			}
			skipped += empty
			if empty == max {
				if len(out) != 0 {
					t.Fatalf("%s call %d: all %d trials empty, but %d arrivals returned", name, call, max, len(out))
				}
			} else {
				ref, rw := s.SampleInto(&want, wbuf)
				wbuf = ref
				if s.oneRun && len(out) == 0 {
					t.Fatalf("%s call %d: returned trial is empty", name, call)
				}
				if len(out) != len(ref) || bits(w) != bits(rw) || bits(w) != bits(s.Weight(len(out))) {
					t.Fatalf("%s call %d: %d arrivals weight %v, SampleInto %d weight %v, Weight %v", name, call, len(out), w, len(ref), rw, s.Weight(len(out)))
				}
				for k := range ref {
					if out[k] != ref[k] {
						t.Fatalf("%s call %d: arrival %d = %+v, SampleInto %+v", name, call, k, out[k], ref[k])
					}
				}
				drawn++
			}
			if got != want {
				t.Fatalf("%s call %d: Sources differ after the call", name, call)
			}
		}
		if s.oneRun && name != "no types" && (skipped == 0 || drawn == 0) {
			t.Fatalf("%s: %d trials skipped and %d drawn; the test needs both", name, skipped, drawn)
		}
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
		src := new(rng.Source)
		src.Seed(9)
		buf := make([]Arrival, 0, 1024)
		allocs := testing.AllocsPerRun(500, func() {
			buf, _ = s.SampleInto(src, buf[:0])
		})
		if allocs != 0 {
			t.Errorf("%s: SampleInto allocates %v per draw, want 0", name, allocs)
		}
	}
}

// The Sampler benchmarks draw the histories of a lifetime trial: field
// rates on a 2×36-device channel over 7 years, where most plain draws
// are empty, from an rng.Source as the Monte Carlo engine hands it over.
// The conditional and tilted (tilt 4) rows sample the same process.
func benchmarkSampler(b *testing.B, s *Sampler) {
	src := new(rng.Source)
	src.Seed(1)
	buf := make([]Arrival, 0, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = s.SampleInto(src, buf[:0])
	}
}

func BenchmarkSamplerSampleInto(b *testing.B) {
	benchmarkSampler(b, NewSampler(FieldStudyRates(), 2, 36, 7))
}

func BenchmarkSamplerSampleIntoConditional(b *testing.B) {
	benchmarkSampler(b, NewConditionalSampler(FieldStudyRates(), 2, 36, 7))
}

func BenchmarkSamplerSampleIntoTilted(b *testing.B) {
	benchmarkSampler(b, NewTiltedSampler(FieldStudyRates(), 4, 2, 36, 7))
}
