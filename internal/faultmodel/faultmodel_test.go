package faultmodel

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"arcc/internal/rng"
)

func TestTypesCoverAll(t *testing.T) {
	if len(Types()) != int(NumTypes) {
		t.Fatalf("Types() has %d entries, want %d", len(Types()), NumTypes)
	}
	seen := map[Type]bool{}
	for _, ty := range Types() {
		if seen[ty] {
			t.Fatalf("duplicate type %v", ty)
		}
		seen[ty] = true
		if ty.String() == "" {
			t.Fatalf("type %d has empty name", ty)
		}
	}
}

func TestFieldStudyRatesShape(t *testing.T) {
	r := FieldStudyRates()
	if len(r) != len(Types()) {
		t.Fatalf("rates table has %d entries, want %d", len(r), len(Types()))
	}
	// The study's key qualitative findings: bit faults dominate; device and
	// lane faults are rare relative to bank faults.
	if r[Bit] <= r[Bank] || r[Bit] <= r[Row] {
		t.Fatal("bit faults must dominate the rate table")
	}
	if r[Device] >= r[Bank] || r[Lane] >= r[Bank] {
		t.Fatal("device/lane faults must be rarer than bank faults")
	}
	for ty, v := range r {
		if v <= 0 {
			t.Fatalf("rate for %v is %v, want > 0", ty, v)
		}
	}
}

func TestRatesScale(t *testing.T) {
	r := FieldStudyRates()
	r4 := r.Scale(4)
	for ty := range r {
		if math.Abs(r4[ty]-4*r[ty]) > 1e-12 {
			t.Fatalf("Scale(4) wrong for %v", ty)
		}
	}
	if math.Abs(r4.Total()-4*r.Total()) > 1e-9 {
		t.Fatal("Total does not scale")
	}
	// Scaling must not alias the original.
	r4[Bit] = 0
	if r[Bit] == 0 {
		t.Fatal("Scale aliased the receiver")
	}
}

func TestScaleNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Scale(-1) did not panic")
		}
	}()
	FieldStudyRates().Scale(-1)
}

func TestExpectedFaults(t *testing.T) {
	r := Rates{Device: 1000} // 1000 FIT
	// 1000 FIT x 1e-9 x 100 devices x 1 year(8766h) = 0.8766 faults.
	got := r.ExpectedFaults(Device, 100, 1)
	if math.Abs(got-0.8766) > 1e-9 {
		t.Fatalf("ExpectedFaults = %v, want 0.8766", got)
	}
}

func TestUpgradedFractionMatchesTable74(t *testing.T) {
	// Table 7.4: lane 100%, device 1/2, subbank 1/16, column 1/32.
	s := ARCCChannelShape()
	cases := map[Type]float64{
		Lane:   1.0,
		Device: 0.5,
		Bank:   1.0 / 16,
		Column: 1.0 / 32,
	}
	for ty, want := range cases {
		if got := s.UpgradedFraction(ty); math.Abs(got-want) > 1e-12 {
			t.Errorf("%v: fraction = %v, want %v", ty, got, want)
		}
	}
}

func TestUpgradedFractionSmallSpans(t *testing.T) {
	s := ARCCChannelShape()
	if got := s.UpgradedFraction(Row); got != 2.0/float64(s.TotalPages) {
		t.Fatalf("row fraction = %v", got)
	}
	if got := s.UpgradedFraction(Bit); got != 1.0/float64(s.TotalPages) {
		t.Fatalf("bit fraction = %v", got)
	}
	if got := s.UpgradedFraction(Word); got != 1.0/float64(s.TotalPages) {
		t.Fatalf("word fraction = %v", got)
	}
}

func TestUpgradedFractionOrdering(t *testing.T) {
	// Larger circuitry must never affect fewer pages.
	s := ARCCChannelShape()
	order := []Type{Bit, Row, Column, Bank, Device, Lane}
	for i := 1; i < len(order); i++ {
		lo, hi := s.UpgradedFraction(order[i-1]), s.UpgradedFraction(order[i])
		if lo > hi {
			t.Fatalf("fraction(%v)=%v > fraction(%v)=%v", order[i-1], lo, order[i], hi)
		}
	}
}

func TestChannelShapeValidate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid shape did not panic")
		}
	}()
	ChannelShape{}.UpgradedFraction(Lane)
}

func TestIsTransientScale(t *testing.T) {
	for _, ty := range []Type{Bit, Word, Row} {
		if !ty.IsTransientScale() {
			t.Errorf("%v should be transient-scale", ty)
		}
	}
	for _, ty := range []Type{Column, Bank, Device, Lane} {
		if ty.IsTransientScale() {
			t.Errorf("%v should not be transient-scale", ty)
		}
	}
}

func TestSampleArrivalsDeterministic(t *testing.T) {
	r := FieldStudyRates().Scale(100) // high rate so arrivals exist
	a1 := SampleArrivalsInto(rand.New(rand.NewSource(42)), nil, r, 2, 18, 7)
	a2 := SampleArrivalsInto(rand.New(rand.NewSource(42)), nil, r, 2, 18, 7)
	if len(a1) != len(a2) {
		t.Fatalf("same seed, different arrival counts: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("same seed, different arrival %d: %+v vs %+v", i, a1[i], a2[i])
		}
	}
}

func TestSampleArrivalsSortedAndInRange(t *testing.T) {
	r := FieldStudyRates().Scale(200)
	rng := rand.New(rand.NewSource(7))
	arr := SampleArrivalsInto(rng, nil, r, 2, 18, 7)
	if len(arr) == 0 {
		t.Fatal("no arrivals at 200x rates over 7 years; sampling broken")
	}
	if !sort.SliceIsSorted(arr, func(i, j int) bool { return arr[i].AtHours < arr[j].AtHours }) {
		t.Fatal("arrivals not sorted by time")
	}
	maxH := 7 * HoursPerYear
	for _, a := range arr {
		if a.AtHours < 0 || a.AtHours > maxH {
			t.Fatalf("arrival time %v outside [0, %v]", a.AtHours, maxH)
		}
		if a.Type == Lane {
			if a.Rank != -1 {
				t.Fatalf("lane fault has rank %d, want -1", a.Rank)
			}
		} else if a.Rank < 0 || a.Rank >= 2 {
			t.Fatalf("arrival rank %d out of range", a.Rank)
		}
		if a.Device < 0 || a.Device >= 18 {
			t.Fatalf("arrival device %d out of range", a.Device)
		}
	}
}

func TestSampleArrivalsMeanMatchesExpectation(t *testing.T) {
	// Law of large numbers: across many channels the empirical fault count
	// per type should match rate x devices x hours.
	rates := FieldStudyRates()
	rng := rand.New(rand.NewSource(11))
	const channels = 20000
	const years = 7.0
	counts := map[Type]int{}
	for i := 0; i < channels; i++ {
		for _, a := range SampleArrivalsInto(rng, nil, rates, 2, 18, years) {
			counts[a.Type]++
		}
	}
	for _, ty := range Types() {
		want := rates.ExpectedFaults(ty, 36, years) * channels
		got := float64(counts[ty])
		if want < 100 {
			continue // too few samples for a tight bound
		}
		// Poisson counts: std = sqrt(mean). Allow 4 sigma.
		if math.Abs(got-want) > 4*math.Sqrt(want) {
			t.Errorf("%v: %v arrivals, want ~%v (+-4 sigma = %v)", ty, got, want, 4*math.Sqrt(want))
		}
	}
}

func TestPoissonSmallAndLargeLambda(t *testing.T) {
	src := new(rng.Source)
	src.Seed(5)
	if got := poisson(src, 0, 1, zeroThreshold(1)); got != 0 {
		t.Fatalf("poisson(0) = %d", got)
	}
	// Large-lambda path: mean within 5% over many draws.
	const lambda = 500.0
	var sum float64
	const draws = 2000
	expNeg := math.Exp(-lambda)
	for i := 0; i < draws; i++ {
		sum += float64(poisson(src, lambda, expNeg, zeroThreshold(expNeg)))
	}
	mean := sum / draws
	if math.Abs(mean-lambda)/lambda > 0.05 {
		t.Fatalf("poisson(%v) mean = %v", lambda, mean)
	}
}

func TestSampleArrivalsPanicsOnBadArgs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, args := range []struct {
		ranks, dev int
		years      float64
	}{{0, 18, 1}, {2, 0, 1}, {2, 18, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SampleArrivalsInto(%+v) did not panic", args)
				}
			}()
			SampleArrivalsInto(rng, nil, FieldStudyRates(), args.ranks, args.dev, args.years)
		}()
	}
}
