package reliability

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"arcc/internal/faultmodel"
	"arcc/internal/mc"
	"arcc/internal/rng"
)

// forEachSeriesPath calls f under each implementation of
// faultyPageSeries: the kernel installed at init (on CPUs with
// AVX-512F) and the Go loop, forced by clearing seriesKernel. It
// reinstalls the kernel afterwards.
func forEachSeriesPath(f func(path string, available bool)) {
	kernel := seriesKernel
	defer func() { seriesKernel = kernel }()
	f("kernel", kernel != nil)
	seriesKernel = nil
	f("go", true)
}

// TestFaultyPageSeriesPathsMatchReference draws sorted histories whose
// arrivals fall exactly on year ends, one ulp either side of them, at
// hour 0, past the lifespan and anywhere in it, with fractions that keep
// the totals below 1, ones that push them past it, and a NaN one (which
// the cap must pass through, as total > 1 does), and requires every
// path of faultyPageSeries to write, for 1 to 10 years (the kernel takes
// up to 8) into a buffer full of NaN, bit for bit what the per-trial
// reference writes.
func TestFaultyPageSeriesPathsMatchReference(t *testing.T) {
	pick := rand.New(rand.NewSource(12))
	var small, large, nan [faultmodel.NumTypes]float64
	for i := range small {
		small[i] = pick.Float64() / 64
		large[i] = 0.1 + pick.Float64()
	}
	large[2] = 0 // a type that adds +0
	nan = large
	nan[4] = math.NaN()
	hour := func(years int) float64 {
		end := float64(1+pick.Intn(years+1)) * faultmodel.HoursPerYear
		switch pick.Intn(6) {
		case 0, 1:
			return end
		case 2:
			return math.Nextafter(end, 0)
		case 3:
			return math.Nextafter(end, math.Inf(1))
		case 4:
			return 0
		}
		return pick.Float64() * float64(years+1) * faultmodel.HoursPerYear
	}
	forEachSeriesPath(func(path string, available bool) {
		if !available {
			t.Logf("%s: this CPU has no series kernel", path)
			return
		}
		atEnd, capped, nans := 0, 0, 0
		for trial := 0; trial < 4000; trial++ {
			years := 1 + trial%10
			arrivals := make([]faultmodel.Arrival, pick.Intn(9))
			for i := range arrivals {
				arrivals[i] = faultmodel.Arrival{AtHours: hour(years), Type: faultmodel.Type(pick.Intn(int(faultmodel.NumTypes)))}
				if math.Mod(arrivals[i].AtHours, faultmodel.HoursPerYear) == 0 && arrivals[i].AtHours > 0 {
					atEnd++
				}
			}
			slices.SortFunc(arrivals, func(a, b faultmodel.Arrival) int { return cmp.Compare(a.AtHours, b.AtHours) })
			frac := &small
			switch trial % 5 {
			case 0, 1:
				frac = &large
			case 2:
				frac = &nan
			}
			series := make([]float64, years, max(years, 8))
			for i := range series[:cap(series)] {
				series[:cap(series)][i] = math.NaN()
			}
			want := make([]float64, years)
			faultyPageSeries(arrivals, frac, yearEnds(years), series)
			refFaultyPageSeries(arrivals, frac, years, want)
			for y := range want {
				if math.Float64bits(series[y]) != math.Float64bits(want[y]) {
					t.Fatalf("%s: %d years, arrivals %v: year %d = %v, reference %v", path, years, arrivals, y+1, series[y], want[y])
				}
			}
			if want[years-1] == 1 {
				capped++
			}
			if math.IsNaN(want[years-1]) {
				nans++
			}
		}
		if atEnd == 0 || capped == 0 || nans == 0 {
			t.Fatalf("%s: %d arrivals at year ends, %d capped and %d NaN series; the test needs each", path, atEnd, capped, nans)
		}
	})
}

// TestShardLoopsDoNotAllocate pins the zero-allocation steady state of
// both shard loops of the lifetime Monte Carlo: the plain loop into
// per-year sums and the tilted loop into a weighted set, over a shard
// with faulty trials whose last trials are a run of empty ones, so the
// shard ends inside an empty run.
func TestShardLoopsDoNotAllocate(t *testing.T) {
	shape := faultmodel.ARCCChannelShape()
	var faulty metric
	for _, typ := range faultmodel.Types() {
		faulty.perType[typ] = shape.UpgradedFraction(typ)
	}
	for name, accel := range map[string]Accel{"plain": {}, "tilted": {Mode: AccelTilted, Tilt: 2}} {
		s := testSpec(1, mc.Options{}, faultmodel.FieldStudyRates(), 18, 7, mc.DefaultShardSize)
		s.Accel = accel
		if err := s.validate(); err != nil {
			t.Fatal(err)
		}
		job := s.job(faulty)
		acc, scratch := job.NewAcc(), job.NewScratch()
		sampler := faultmodel.NewSampler(s.Rates, s.Ranks, s.DevicesPerRank, float64(s.Years))
		if accel.Mode == AccelTilted {
			sampler = faultmodel.NewTiltedSampler(s.Rates, accel.Tilt, s.Ranks, s.DevicesPerRank, float64(s.Years))
		}
		// Find a shard stream whose trials end in a run of empty
		// trials after at least one faulty trial.
		var src rng.Source
		seed := int64(0)
		for ; seed < 1000; seed++ {
			src.Seed(seed)
			faultyTrials, lastEmpty := 0, false
			for left := mc.DefaultShardSize; left > 0; left-- {
				empty, _, _ := sampler.SampleNextInto(&src, nil, left)
				if left -= empty; left == 0 {
					lastEmpty = empty > 0
					break
				}
				faultyTrials++
			}
			if faultyTrials > 0 && lastEmpty {
				break
			}
		}
		if seed == 1000 {
			t.Fatalf("%s: no shard stream ends in an empty run", name)
		}
		allocs := testing.AllocsPerRun(100, func() {
			src.Seed(seed)
			job.Shard(&src, 0, mc.DefaultShardSize, acc, scratch)
		})
		if allocs != 0 {
			t.Errorf("%s: a shard allocates %v times, want 0", name, allocs)
		}
	}
}

var seriesSink float64

// BenchmarkFaultyPageSeries writes the seven-year faulty-page series of
// one faulty lifetime history per op, on each path of faultyPageSeries
// (the AVX-512 kernel where the CPU has it, and the Go loop): the
// non-empty histories of a tilted (tilt 8) field-rate sampler on a
// 2×18-device channel, one to a few arrivals each.
func BenchmarkFaultyPageSeries(b *testing.B) {
	shape := faultmodel.ARCCChannelShape()
	var frac [faultmodel.NumTypes]float64
	for _, typ := range faultmodel.Types() {
		frac[typ] = shape.UpgradedFraction(typ)
	}
	sampler := faultmodel.NewTiltedSampler(faultmodel.FieldStudyRates(), 8, 2, 18, 7)
	var src rng.Source
	src.Seed(1)
	var histories [][]faultmodel.Arrival
	for len(histories) < 256 {
		if arrivals, _ := sampler.SampleInto(&src, nil); len(arrivals) > 0 {
			histories = append(histories, arrivals)
		}
	}
	ends := yearEnds(7)
	series := make([]float64, 7, 8)
	forEachSeriesPath(func(path string, available bool) {
		b.Run(path, func(b *testing.B) {
			if !available {
				b.Skip("this CPU has no series kernel")
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				faultyPageSeries(histories[i%len(histories)], &frac, ends, series)
				seriesSink += series[6]
			}
		})
	})
}
