package faultmodel

import (
	"math"
	"math/rand"
	"testing"

	"arcc/internal/rng"
)

// rareRates scales the field-study mix down so that a 7-year lifetime has
// only a fraction-of-a-percent chance of any fault — the regime the
// importance samplers exist for.
func rareRates() Rates { return FieldStudyRates().Scale(0.05) }

func TestConditionalAlwaysNonEmptySortedAndWeighted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rates := rareRates()
	lambda := ExpectedArrivals(rates, 2, 18, 7)
	wantW := -math.Expm1(-lambda)
	var buf []Arrival
	for i := 0; i < 5000; i++ {
		arr, w := SampleArrivalsConditionalInto(rng, buf, rates, 2, 18, 7)
		buf = arr
		if len(arr) == 0 {
			t.Fatal("conditional draw produced an empty history")
		}
		if math.Abs(w-wantW) > 1e-12 {
			t.Fatalf("weight %v, want %v", w, wantW)
		}
		for j := 1; j < len(arr); j++ {
			if arr[j-1].AtHours > arr[j].AtHours {
				t.Fatal("arrivals not sorted by time")
			}
		}
		for _, a := range arr {
			if a.AtHours < 0 || a.AtHours > 7*HoursPerYear {
				t.Fatalf("arrival time %v outside lifespan", a.AtHours)
			}
			if a.Type == Lane {
				if a.Rank != -1 {
					t.Fatal("lane fault should have rank -1")
				}
			} else if a.Rank < 0 || a.Rank >= 2 {
				t.Fatalf("rank %d out of range", a.Rank)
			}
			if a.Device < 0 || a.Device >= 18 {
				t.Fatalf("device %d out of range", a.Device)
			}
		}
	}
}

// TestConditionalMatchesTruncatedLaw checks the conditional sampler
// against the ground truth: the unconditioned sampler restricted to its
// nonzero draws. Count distribution and type marginals must agree.
func TestConditionalMatchesTruncatedLaw(t *testing.T) {
	// Moderate rates so rejection sampling the ground truth is affordable.
	rates := FieldStudyRates().Scale(4)
	rng := rand.New(rand.NewSource(2))
	const trials = 60_000

	condCounts := map[int]int{}
	condTypes := map[Type]int{}
	var buf []Arrival
	for i := 0; i < trials; i++ {
		arr, _ := SampleArrivalsConditionalInto(rng, buf, rates, 2, 18, 7)
		buf = arr
		condCounts[len(arr)]++
		for _, a := range arr {
			condTypes[a.Type]++
		}
	}

	rejCounts := map[int]int{}
	rejTypes := map[Type]int{}
	got := 0
	for got < trials {
		arr := SampleArrivalsInto(rng, buf, rates, 2, 18, 7)
		buf = arr
		if len(arr) == 0 {
			continue
		}
		got++
		rejCounts[len(arr)]++
		for _, a := range arr {
			rejTypes[a.Type]++
		}
	}

	for n := 1; n <= 3; n++ {
		pc := float64(condCounts[n]) / trials
		pr := float64(rejCounts[n]) / trials
		if math.Abs(pc-pr) > 0.015 {
			t.Fatalf("P(N=%d): conditional %.4f vs rejection %.4f", n, pc, pr)
		}
	}
	for _, typ := range Types() {
		pc := float64(condTypes[typ]) / float64(trials)
		pr := float64(rejTypes[typ]) / float64(trials)
		if math.Abs(pc-pr) > 0.02 {
			t.Fatalf("type %v marginal: conditional %.4f vs rejection %.4f", typ, pc, pr)
		}
	}
}

// TestConditionalUnbiasedMean reconstructs E[N] = λ from weighted
// conditional draws: E[N] = P(N=0)·0 + E_cond[w·N].
func TestConditionalUnbiasedMean(t *testing.T) {
	rates := rareRates()
	lambda := ExpectedArrivals(rates, 2, 18, 7)
	rng := rand.New(rand.NewSource(3))
	var sum float64
	const trials = 200_000
	var buf []Arrival
	for i := 0; i < trials; i++ {
		arr, w := SampleArrivalsConditionalInto(rng, buf, rates, 2, 18, 7)
		buf = arr
		sum += w * float64(len(arr))
	}
	got := sum / trials
	if math.Abs(got-lambda)/lambda > 0.02 {
		t.Fatalf("reconstructed E[N] = %v, want %v", got, lambda)
	}
}

// TestTiltedWeightsAverageToOne: E_Q[dP/dQ] = 1 is the defining property
// of a likelihood ratio; with f ≡ 1 the weighted estimator must
// reconstruct exactly 1.
func TestTiltedWeightsAverageToOne(t *testing.T) {
	rates := rareRates()
	rng := rand.New(rand.NewSource(4))
	for _, tilt := range []float64{2, 8, 32} {
		var sum float64
		const trials = 100_000
		var buf []Arrival
		for i := 0; i < trials; i++ {
			arr, w := SampleArrivalsTiltedInto(rng, buf, rates, tilt, 2, 18, 7)
			buf = arr
			if w <= 0 {
				t.Fatalf("tilt %v: non-positive weight %v", tilt, w)
			}
			sum += w
		}
		if got := sum / trials; math.Abs(got-1) > 0.02 {
			t.Fatalf("tilt %v: mean weight %v, want 1", tilt, got)
		}
	}
}

// TestTiltedUnbiasedMean reconstructs E[N] = λ from tilted draws.
func TestTiltedUnbiasedMean(t *testing.T) {
	rates := rareRates()
	lambda := ExpectedArrivals(rates, 2, 18, 7)
	rng := rand.New(rand.NewSource(5))
	var sum float64
	const trials = 100_000
	var buf []Arrival
	for i := 0; i < trials; i++ {
		arr, w := SampleArrivalsTiltedInto(rng, buf, rates, 16, 2, 18, 7)
		buf = arr
		sum += w * float64(len(arr))
	}
	got := sum / trials
	if math.Abs(got-lambda)/lambda > 0.03 {
		t.Fatalf("reconstructed E[N] = %v, want %v", got, lambda)
	}
}

func TestZeroTruncatedPoissonLaw(t *testing.T) {
	src := new(rng.Source)
	src.Seed(6)
	for _, lambda := range []float64{0.01, 0.5, 3, 40} {
		const trials = 50_000
		var sum float64
		expNeg := math.Exp(-lambda)
		zeroMax := zeroThreshold(expNeg)
		for i := 0; i < trials; i++ {
			n := zeroTruncatedPoisson(src, lambda, expNeg, zeroMax, lambda/math.Expm1(lambda))
			if n < 1 {
				t.Fatalf("lambda %v: drew %d < 1", lambda, n)
			}
			sum += float64(n)
		}
		want := lambda / -math.Expm1(-lambda) // E[N | N>=1]
		got := sum / trials
		if math.Abs(got-want)/want > 0.02 {
			t.Fatalf("lambda %v: mean %v, want %v", lambda, got, want)
		}
	}
}

func TestImportancePanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var buf []Arrival
	for name, f := range map[string]func(){
		"conditional zero rate": func() { SampleArrivalsConditionalInto(rng, buf, Rates{}, 2, 18, 7) },
		"conditional bad geom":  func() { SampleArrivalsConditionalInto(rng, buf, FieldStudyRates(), 0, 18, 7) },
		"tilt zero":             func() { SampleArrivalsTiltedInto(rng, buf, FieldStudyRates(), 0, 2, 18, 7) },
		"tilt negative":         func() { SampleArrivalsTiltedInto(rng, buf, FieldStudyRates(), -2, 2, 18, 7) },
		"tilt NaN":              func() { SampleArrivalsTiltedInto(rng, buf, FieldStudyRates(), math.NaN(), 2, 18, 7) },
		"tilt bad geom":         func() { SampleArrivalsTiltedInto(rng, buf, FieldStudyRates(), 2, 2, 0, 7) },
		"sampler bad geom":      func() { NewSampler(FieldStudyRates(), 2, 18, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestConditionalIntoDoesNotAllocateSteadyState(t *testing.T) {
	rates := rareRates()
	rng := rand.New(rand.NewSource(8))
	buf := make([]Arrival, 0, 64)
	allocs := testing.AllocsPerRun(2000, func() {
		arr, _ := SampleArrivalsConditionalInto(rng, buf, rates, 2, 18, 7)
		buf = arr[:0]
	})
	if allocs > 0 {
		t.Fatalf("conditional sampling allocates %v per draw", allocs)
	}
}

func BenchmarkSampleArrivalsConditionalInto(b *testing.B) {
	rates := rareRates()
	rng := rand.New(rand.NewSource(1))
	buf := make([]Arrival, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		arr, _ := SampleArrivalsConditionalInto(rng, buf, rates, 2, 18, 7)
		buf = arr[:0]
	}
}

func BenchmarkSampleArrivalsTiltedInto(b *testing.B) {
	rates := rareRates()
	rng := rand.New(rand.NewSource(1))
	buf := make([]Arrival, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		arr, _ := SampleArrivalsTiltedInto(rng, buf, rates, 16, 2, 18, 7)
		buf = arr[:0]
	}
}
