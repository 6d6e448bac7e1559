package reliability

import (
	"context"
	"runtime"
	"testing"

	"arcc/internal/faultmodel"
	"arcc/internal/mc"
)

// The engine contract: for a fixed seed, every reliability Monte Carlo
// must produce bit-identical output at any parallelism. Serial
// (parallelism 1) is the reference.
func TestReliabilityDeterministicAcrossParallelism(t *testing.T) {
	shape := faultmodel.ARCCChannelShape()
	rates := faultmodel.FieldStudyRates().Scale(100)
	ov := WorstCaseOverheads(shape, 2)
	inflated := DefaultParams()
	inflated.Rates = inflated.Rates.Scale(3000)
	inflated.LifeYears = 1

	cases := []struct {
		name string
		run  func(opts mc.Options) []float64
	}{
		{"FaultyPageFraction", func(opts mc.Options) []float64 {
			return mustFaulty(t, testSpec(11, opts, rates, 36, 5, 700), shape).Mean
		}},
		{"LifetimeOverhead", func(opts mc.Options) []float64 {
			return mustOverhead(t, testSpec(12, opts, rates, 36, 5, 700), ov, 1.0).Mean
		}},
		{"SimulateARCCDED", func(opts mc.Options) []float64 {
			n, err := SimulateARCCDED(context.Background(), 13, opts, inflated, 700)
			if err != nil {
				t.Fatal(err)
			}
			return []float64{float64(n)}
		}},
	}
	parallelisms := []int{1, 4, runtime.NumCPU()}
	for _, tc := range cases {
		want := tc.run(mc.Options{Parallelism: 1})
		for _, par := range parallelisms {
			got := tc.run(mc.Options{Parallelism: par})
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s: parallelism %d year %d = %v, want bit-identical %v",
						tc.name, par, i+1, got[i], want[i])
				}
			}
		}
	}
}

// testSpec is the plain-sampling Spec of the tests: two ranks of
// devicesPerRank devices, no burst, no acceleration, no CI.
func testSpec(seed int64, opts mc.Options, rates faultmodel.Rates, devicesPerRank, years, channels int) Spec {
	return Spec{Seed: seed, Opts: opts, Rates: rates, Ranks: 2, DevicesPerRank: devicesPerRank, Years: years, Channels: channels}
}

func mustFaulty(tb testing.TB, s Spec, shape faultmodel.ChannelShape) *SeriesStats {
	tb.Helper()
	out, err := FaultyPageFraction(context.Background(), s, shape)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

func mustOverhead(tb testing.TB, s Spec, overhead OverheadByType, cap float64) *SeriesStats {
	tb.Helper()
	out, err := LifetimeOverhead(context.Background(), s, overhead, cap)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// benchOverheadRun executes the Fig 7.4 worst-case Monte Carlo once, at a
// volume large enough for the worker pool to matter.
func benchOverheadRun(b *testing.B, opts mc.Options) []float64 {
	shape := faultmodel.ARCCChannelShape()
	rates := faultmodel.FieldStudyRates().Scale(4)
	ov := WorstCaseOverheads(shape, 2)
	return mustOverhead(b, testSpec(1, opts, rates, 36, 7, 20000), ov, 1.0).Mean
}

func BenchmarkLifetimeOverheadSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchOverheadRun(b, mc.Options{Parallelism: 1})
	}
}

// BenchmarkLifetimeOverheadParallel is the acceptance benchmark for the
// sharded engine: 8 workers over the same shard structure as the serial
// run. On a machine with >= 8 cores it runs >= 3x faster than
// BenchmarkLifetimeOverheadSerial while producing bit-identical output
// (asserted here, not just in the unit tests).
func BenchmarkLifetimeOverheadParallel(b *testing.B) {
	var got []float64
	for i := 0; i < b.N; i++ {
		got = benchOverheadRun(b, mc.Options{Parallelism: 8})
	}
	b.StopTimer()
	want := benchOverheadRun(b, mc.Options{Parallelism: 1})
	for i := range want {
		if got[i] != want[i] {
			b.Fatalf("parallel output diverged from serial at year %d: %v != %v", i+1, got[i], want[i])
		}
	}
}
