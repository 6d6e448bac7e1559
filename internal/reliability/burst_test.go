package reliability

import (
	"context"
	"math"
	"slices"
	"testing"

	"arcc/internal/faultmodel"
	"arcc/internal/mc"
)

// burstTestRates returns rates inflated enough that burst effects are
// measurable with modest trial counts.
func burstTestRates() faultmodel.Rates {
	return faultmodel.FieldStudyRates().Scale(100)
}

// TestZeroBurstBitIdentical: a burst whose probabilities are zero is the
// zero burst — it consumes no randomness, so sizes alone change nothing
// — on both metrics, with and without CI, at two parallelisms.
func TestZeroBurstBitIdentical(t *testing.T) {
	rates := burstTestRates()
	shape := faultmodel.ARCCChannelShape()
	ov := WorstCaseOverheads(shape, 2)
	for _, par := range []int{1, 4} {
		for _, ci := range []bool{false, true} {
			spec := testSpec(5, mc.Options{Parallelism: par}, rates, 18, 7, 3000)
			spec.CI = ci
			sized := spec
			sized.Burst = faultmodel.Burst{RowMean: 8, RowMax: 32, BankMean: 8, BankMax: 32}
			if a, b := mustFaulty(t, spec, shape).Mean, mustFaulty(t, sized, shape).Mean; !slices.Equal(a, b) {
				t.Fatalf("par %d ci %v: zero burst diverged:\n%v\n%v", par, ci, a, b)
			}
			if a, b := mustOverhead(t, spec, ov, 1).Mean, mustOverhead(t, sized, ov, 1).Mean; !slices.Equal(a, b) {
				t.Fatalf("par %d ci %v: zero burst diverged (overhead):\n%v\n%v", par, ci, a, b)
			}
		}
	}
}

func TestBurstRaisesFaultyFraction(t *testing.T) {
	rates := burstTestRates()
	shape := faultmodel.ARCCChannelShape()
	spec := testSpec(5, mc.Options{Parallelism: 4}, rates, 18, 7, 4000)
	plain := mustFaulty(t, spec, shape).Mean
	spec.Burst = faultmodel.Burst{RowProb: 1, RowMean: 8, RowMax: 32, BankProb: 1, BankMean: 8, BankMax: 32}
	bursty := mustFaulty(t, spec, shape).Mean
	final := len(plain) - 1
	if bursty[final] <= plain[final] {
		t.Fatalf("correlated bursts did not raise the faulty fraction: %v <= %v", bursty[final], plain[final])
	}

	// Determinism across parallelism.
	spec.Opts.Parallelism = 1
	if again := mustFaulty(t, spec, shape).Mean; !slices.Equal(bursty, again) {
		t.Fatalf("burst run not parallelism-invariant:\n%v\n%v", bursty, again)
	}
}

func TestBurstComposesWithAcceleration(t *testing.T) {
	// The IS contract: conditional acceleration with bursts estimates the
	// same quantity as plain sampling with bursts. Compare the accelerated
	// estimate against a high-trial plain run within combined CIs.
	rates := burstTestRates()
	shape := faultmodel.ARCCChannelShape()
	const years = 7
	spec := testSpec(21, mc.Options{Parallelism: 4}, rates, 18, years, 60_000)
	spec.Burst = faultmodel.Burst{RowProb: 0.8, RowMean: 6, RowMax: 24}
	spec.CI = true
	ref := mustFaulty(t, spec, shape)
	spec.Seed, spec.Channels, spec.Accel = 99, 8_000, Accel{Mode: AccelConditional}
	acc := mustFaulty(t, spec, shape)
	// Conditional sampling leaves the zero-fault stratum implicit; both
	// estimate the same mean.
	for y := 0; y < years; y++ {
		tol := 3 * (ref.CI95[y] + acc.CI95[y])
		if math.Abs(ref.Mean[y]-acc.Mean[y]) > tol {
			t.Errorf("year %d: plain %v vs conditional %v (tol %v)", y+1, ref.Mean[y], acc.Mean[y], tol)
		}
	}
	if acc.ESS <= 0 || acc.ESS > float64(acc.Trials) {
		t.Fatalf("degenerate ESS %v", acc.ESS)
	}
}

func TestBurstRejectsInvalid(t *testing.T) {
	spec := testSpec(1, mc.Options{}, burstTestRates(), 18, 3, 10)
	spec.Burst = faultmodel.Burst{RowProb: 2}
	if _, err := FaultyPageFraction(context.Background(), spec, faultmodel.ARCCChannelShape()); err == nil {
		t.Fatal("invalid burst accepted (plain)")
	}
	spec.CI = true
	if _, err := LifetimeOverhead(context.Background(), spec, WorstCaseOverheads(faultmodel.ARCCChannelShape(), 2), 1); err == nil {
		t.Fatal("invalid burst accepted (CI)")
	}
}
