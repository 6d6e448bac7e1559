package reliability

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"arcc/internal/faultmodel"
	"arcc/internal/mc"
)

func TestParseAccel(t *testing.T) {
	for spec, want := range map[string]Accel{
		"":            {},
		"none":        {},
		"conditional": {Mode: AccelConditional},
		"tilt:8":      {Mode: AccelTilted, Tilt: 8},
		"tilt:2.5":    {Mode: AccelTilted, Tilt: 2.5},
	} {
		got, err := ParseAccel(spec)
		if err != nil || got != want {
			t.Fatalf("ParseAccel(%q) = %v, %v; want %v", spec, got, err, want)
		}
		if spec != "" {
			back, err := ParseAccel(got.String())
			if err != nil || back != got {
				t.Fatalf("String round trip of %q: %v, %v", spec, back, err)
			}
		}
	}
	for _, bad := range []string{"tilt:0", "tilt:-3", "tilt:x", "tilt:", "boost", "conditional:2"} {
		if _, err := ParseAccel(bad); err == nil {
			t.Fatalf("ParseAccel(%q) accepted", bad)
		}
	}
}

// TestStatsAccelNoneBitIdentical: with plain sampling the CI path (the
// WeightedSet at unit weight) must reproduce the per-year sums path
// bit for bit — same samplers, same burst expansion, same series math,
// same shard-ordered additions — for both metrics, with and without
// bursts, at any parallelism. Field rates on the 2×18 geometry over 7
// years leave about 87% of the channels fault-free, which the sums path
// skips and the CI path folds in as zero samples.
func TestStatsAccelNoneBitIdentical(t *testing.T) {
	shape := faultmodel.ARCCChannelShape()
	ov := WorstCaseOverheads(shape, 2.0)
	bursts := map[string]faultmodel.Burst{
		"no burst": {},
		"burst":    {RowProb: 0.8, RowMean: 6, RowMax: 24, BankProb: 0.5, BankMean: 4, BankMax: 16},
	}
	cases := []struct {
		name                     string
		rates                    faultmodel.Rates
		devices, years, channels int
	}{
		{"field x4 on 2x36 over 5 years", faultmodel.FieldStudyRates().Scale(4), 36, 5, 700},
		{"field x1 on 2x18 over 7 years", faultmodel.FieldStudyRates(), 18, 7, 2000},
	}
	for _, c := range cases {
		for burstName, burst := range bursts {
			name := c.name + ", " + burstName
			last := c.years - 1
			for _, par := range []int{1, 4, runtime.NumCPU()} {
				spec := testSpec(11, mc.Options{Parallelism: par}, c.rates, c.devices, c.years, c.channels)
				spec.Burst = burst
				withCI := spec
				withCI.CI = true
				plainF, statsF := mustFaulty(t, spec, shape), mustFaulty(t, withCI, shape)
				spec.Seed, withCI.Seed = 12, 12
				plainO, statsO := mustOverhead(t, spec, ov, 1.0), mustOverhead(t, withCI, ov, 1.0)
				for y := 0; y < c.years; y++ {
					if math.Float64bits(statsF.Mean[y]) != math.Float64bits(plainF.Mean[y]) {
						t.Fatalf("%s par %d year %d: faulty-fraction CI mean %v != plain %v", name, par, y+1, statsF.Mean[y], plainF.Mean[y])
					}
					if math.Float64bits(statsO.Mean[y]) != math.Float64bits(plainO.Mean[y]) {
						t.Fatalf("%s par %d year %d: overhead CI mean %v != plain %v", name, par, y+1, statsO.Mean[y], plainO.Mean[y])
					}
				}
				if plainF.CI95 != nil || plainO.CI95 != nil || plainO.ESS != 0 || plainO.FinalSketch != nil {
					t.Fatalf("%s par %d: a run without CI reported interval statistics", name, par)
				}
				if statsO.FinalSketch == nil || statsO.FinalSketch.N != int64(c.channels) {
					t.Fatalf("%s par %d: plain-sampling overhead run with CI should sketch the final year", name, par)
				}
				if statsF.FinalSketch != nil {
					t.Fatalf("%s par %d: faulty-fraction run sketched a year nothing reads", name, par)
				}
				if math.Abs(statsO.ESS-float64(c.channels)) > 1e-6 {
					t.Fatalf("%s par %d: unit-weight ESS = %v, want %d", name, par, statsO.ESS, c.channels)
				}
				if statsO.CI95[last] <= 0 {
					t.Fatalf("%s par %d: final-year CI should be positive", name, par)
				}
			}
		}
	}
}

// TestStatsAccelDeterministicAcrossParallelism: the full accelerated
// result must be identical at any worker count.
func TestStatsAccelDeterministicAcrossParallelism(t *testing.T) {
	shape := faultmodel.ARCCChannelShape()
	ov := WorstCaseOverheads(shape, 2.0)
	rates := faultmodel.FieldStudyRates()
	for _, accel := range []Accel{{Mode: AccelConditional}, {Mode: AccelTilted, Tilt: 8}} {
		spec := testSpec(21, mc.Options{Parallelism: 1}, rates, 36, 5, 900)
		spec.Accel = accel
		base := mustOverhead(t, spec, ov, 1.0)
		for _, par := range []int{4, runtime.GOMAXPROCS(0)} {
			spec.Opts.Parallelism = par
			if got := mustOverhead(t, spec, ov, 1.0); !reflect.DeepEqual(base, got) {
				t.Fatalf("%v at parallelism %d differs from serial run", accel, par)
			}
		}
	}
}

// TestStatsAccelEquivalence: accelerated and plain estimates of the same
// quantity must agree within their combined confidence intervals.
func TestStatsAccelEquivalence(t *testing.T) {
	shape := faultmodel.ARCCChannelShape()
	ov := WorstCaseOverheads(shape, 2.0)
	rates := faultmodel.FieldStudyRates()
	spec := testSpec(31, mc.Options{}, rates, 18, 7, 20000)
	spec.CI = true
	plain := mustOverhead(t, spec, ov, 3.0)
	for _, accel := range []Accel{{Mode: AccelConditional}, {Mode: AccelTilted, Tilt: 4}} {
		spec.Seed, spec.Accel = 32, accel
		acc := mustOverhead(t, spec, ov, 3.0)
		for y := 0; y < 7; y++ {
			diff := math.Abs(acc.Mean[y] - plain.Mean[y])
			tol := 3 * math.Sqrt(plain.CI95[y]*plain.CI95[y]+acc.CI95[y]*acc.CI95[y])
			if diff > tol && diff > 1e-12 {
				t.Fatalf("%v year %d: |%v - %v| = %v exceeds %v", accel, y+1, acc.Mean[y], plain.Mean[y], diff, tol)
			}
		}
		if acc.FinalSketch != nil {
			t.Fatalf("%v: weighted run must not sketch raw observations", accel)
		}
	}
}

// TestConditionalVarianceReduction is the acceptance criterion of the
// acceleration work: at genuinely rare fault rates, conditional sampling
// must reach a target CI half-width with at least 10x fewer trials than
// plain sampling. CI half-width scales as sigma/sqrt(n), so at equal
// trial counts the squared CI ratio is the trial-count ratio to equal
// precision.
func TestConditionalVarianceReduction(t *testing.T) {
	shape := faultmodel.ARCCChannelShape()
	ov := WorstCaseOverheads(shape, 2.0)
	rates := faultmodel.FieldStudyRates().Scale(0.05) // P(any fault in 7y) ~ 0.7%
	const channels = 4000
	spec := testSpec(41, mc.Options{}, rates, 18, 7, channels)
	spec.CI = true
	plain := mustOverhead(t, spec, ov, 3.0)
	spec.Seed, spec.Accel = 42, Accel{Mode: AccelConditional}
	cond := mustOverhead(t, spec, ov, 3.0)
	y := 6 // final year
	if plain.CI95[y] == 0 {
		t.Fatal("plain run saw no faults at all; cannot compare variances")
	}
	gain := (plain.CI95[y] / cond.CI95[y]) * (plain.CI95[y] / cond.CI95[y])
	if gain < 10 {
		t.Fatalf("conditional acceleration gains only %.1fx (plain CI %v, conditional CI %v)", gain, plain.CI95[y], cond.CI95[y])
	}
	t.Logf("conditional acceleration: %.0fx fewer trials to equal CI (plain CI %.3g, conditional CI %.3g)",
		gain, plain.CI95[y], cond.CI95[y])
}

func TestConditionalZeroRateIsError(t *testing.T) {
	shape := faultmodel.ARCCChannelShape()
	spec := testSpec(1, mc.Options{}, faultmodel.Rates{}, 36, 5, 100)
	spec.Accel = Accel{Mode: AccelConditional}
	if _, err := FaultyPageFraction(context.Background(), spec, shape); err == nil {
		t.Fatal("conditioning on an impossible event should be an error")
	}
}

func TestAccelValidate(t *testing.T) {
	for _, bad := range []Accel{
		{Mode: AccelTilted},
		{Mode: AccelTilted, Tilt: -1},
		{Mode: AccelTilted, Tilt: math.Inf(1)},
		{Mode: AccelMode(99)},
	} {
		if bad.Validate() == nil {
			t.Fatalf("%+v validated", bad)
		}
	}
}

// BenchmarkLifetimeOverheadStatsConditional measures the accelerated
// estimator at rare field rates; compare against
// BenchmarkLifetimeOverheadSerial for the per-trial cost and against
// TestConditionalVarianceReduction for the trials-to-precision gain.
func BenchmarkLifetimeOverheadStatsConditional(b *testing.B) {
	shape := faultmodel.ARCCChannelShape()
	ov := WorstCaseOverheads(shape, 2.0)
	rates := faultmodel.FieldStudyRates().Scale(0.05)
	spec := testSpec(1, mc.Options{Parallelism: 1}, rates, 18, 7, 2000)
	spec.Accel = Accel{Mode: AccelConditional}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mustOverhead(b, spec, ov, 3.0)
	}
}

// BenchmarkLifetimeOverheadStatsTilted is the same sweep under tilted
// sampling at tilt 8, the proposal of perfbench's "tilt" scenario: every
// rate scaled by 8, so a trial draws and places several arrivals and
// weighs its history by the tabulated likelihood ratio.
func BenchmarkLifetimeOverheadStatsTilted(b *testing.B) {
	shape := faultmodel.ARCCChannelShape()
	ov := WorstCaseOverheads(shape, 2.0)
	rates := faultmodel.FieldStudyRates().Scale(0.05)
	spec := testSpec(1, mc.Options{Parallelism: 1}, rates, 18, 7, 2000)
	spec.Accel = Accel{Mode: AccelTilted, Tilt: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mustOverhead(b, spec, ov, 3.0)
	}
}
