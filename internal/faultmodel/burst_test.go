package faultmodel

import (
	"math"
	"math/rand"
	"testing"
)

// burstSizePMF is the reference burst-size law, truncated geometric on
// 1..max: out[k-1] = P(K = k) with q = 1 - 1/mean, for mean >= 1 and
// max >= 1.
func burstSizePMF(mean float64, max int) []float64 {
	out := make([]float64, max)
	q := 1 - 1/mean
	if q == 0 {
		out[0] = 1
		return out
	}
	// Unnormalised geometric weights, then divide by 1 - q^max.
	norm := 1 - math.Pow(q, float64(max))
	w := 1 - q
	for k := 0; k < max; k++ {
		out[k] = w / norm
		w *= q
	}
	return out
}

func TestBurstValidate(t *testing.T) {
	good := []Burst{
		{},
		{RowProb: 0.3, RowMean: 2, RowMax: 8},
		{BankProb: 1, BankMean: 1, BankMax: 4},
		{RowProb: 0.1, RowMean: 3, RowMax: 16, BankProb: 0.2, BankMean: 2, BankMax: 8},
	}
	for _, b := range good {
		if err := b.Validate(); err != nil {
			t.Errorf("%+v: unexpected error %v", b, err)
		}
	}
	bad := []Burst{
		{RowProb: -0.1},
		{RowProb: 1.5, RowMean: 2, RowMax: 4},
		{RowProb: 0.5, RowMean: 0.5, RowMax: 4},
		{RowProb: 0.5, RowMean: 2, RowMax: 1},
		{BankProb: 0.5, BankMean: math.Inf(1), BankMax: 4},
	}
	for _, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("%+v: accepted", b)
		}
	}
}

func TestBurstSizePMFIsALaw(t *testing.T) {
	for _, tc := range []struct {
		mean float64
		max  int
	}{{1, 5}, {2, 8}, {3, 16}, {10, 4}} {
		pmf := burstSizePMF(tc.mean, tc.max)
		sum := 0.0
		for k, p := range pmf {
			if p < 0 || p > 1 {
				t.Fatalf("mean=%v max=%d: P(K=%d) = %v", tc.mean, tc.max, k+1, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("mean=%v max=%d: pmf sums to %v", tc.mean, tc.max, sum)
		}
		// The truncated-geometric ratio: P(k+1)/P(k) = q = 1 - 1/mean.
		q := 1 - 1/tc.mean
		if q > 0 {
			for k := 0; k+1 < tc.max; k++ {
				if ratio := pmf[k+1] / pmf[k]; math.Abs(ratio-q) > 1e-9 {
					t.Fatalf("mean=%v max=%d: P(%d)/P(%d) = %v, want q=%v", tc.mean, tc.max, k+2, k+1, ratio, q)
				}
			}
		}
	}
	if p := burstSizePMF(1, 5); p[0] != 1 {
		t.Fatalf("mean 1 must be a point mass at 1, got %v", p)
	}
}

func TestSampleBurstSizeMatchesPMF(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const mean, max, n = 2.5, 6, 200_000
	pmf := burstSizePMF(mean, max)
	counts := make([]int, max)
	for i := 0; i < n; i++ {
		k := sampleBurstSize(rng, mean, max)
		if k < 1 || k > max {
			t.Fatalf("sampled size %d outside 1..%d", k, max)
		}
		counts[k-1]++
	}
	for k, p := range pmf {
		got := float64(counts[k]) / n
		// 5-sigma binomial tolerance.
		tol := 5 * math.Sqrt(p*(1-p)/n)
		if math.Abs(got-p) > tol {
			t.Errorf("P(K=%d): empirical %v, law %v (tol %v)", k+1, got, p, tol)
		}
	}
}

func TestZeroBurstConsumesNoRandomness(t *testing.T) {
	arr := []Arrival{{AtHours: 1, Type: Row}, {AtHours: 2, Type: Column}}
	rng := rand.New(rand.NewSource(7))
	before := rand.New(rand.NewSource(7)).Float64()
	out := Burst{}.ExpandInto(rng, arr)
	if len(out) != len(arr) {
		t.Fatalf("zero burst changed the history: %d arrivals", len(out))
	}
	if got := rng.Float64(); got != before {
		t.Fatal("zero burst consumed randomness")
	}
}

func TestExpandIntoLaw(t *testing.T) {
	// One Row primary with RowProb p and size law (mean, max): the expected
	// expanded length is 1 + p*(E[K]-1) with E[K] from the truncated pmf.
	const p, mean, max = 0.4, 2.0, 5
	b := Burst{RowProb: p, RowMean: mean, RowMax: max}
	pmf := burstSizePMF(mean, max)
	ek := 0.0
	for k, q := range pmf {
		ek += float64(k+1) * q
	}
	want := 1 + p*(ek-1)

	rng := rand.New(rand.NewSource(11))
	const n = 200_000
	total := 0
	scratch := make([]Arrival, 0, max)
	for i := 0; i < n; i++ {
		scratch = scratch[:0]
		scratch = append(scratch, Arrival{AtHours: 5, Type: Row, Rank: 1, Device: 3})
		out := b.ExpandInto(rng, scratch)
		for _, a := range out {
			if (a != Arrival{AtHours: 5, Type: Row, Rank: 1, Device: 3}) {
				t.Fatalf("secondary differs from primary: %+v", a)
			}
		}
		total += len(out)
		scratch = out
	}
	got := float64(total) / n
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("mean expanded length %v, want %v", got, want)
	}

	// Bank bursts ignore Row faults and vice versa.
	rng2 := rand.New(rand.NewSource(3))
	out := Burst{BankProb: 1, BankMean: 4, BankMax: 8}.ExpandInto(rng2, []Arrival{{AtHours: 1, Type: Row}})
	if len(out) != 1 {
		t.Fatalf("bank burst expanded a row fault: %d arrivals", len(out))
	}
}

func TestExpandIntoKeepsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	arr := []Arrival{
		{AtHours: 1, Type: Row}, {AtHours: 2, Type: Column},
		{AtHours: 3, Type: Row}, {AtHours: 4, Type: Device},
	}
	out := Burst{RowProb: 1, RowMean: 3, RowMax: 6, BankProb: 1, BankMean: 3, BankMax: 6}.ExpandInto(rng, arr)
	if len(out) <= 4 {
		t.Fatalf("prob-1 bursts on 3 burstable faults expanded nothing (len %d)", len(out))
	}
	for i := 1; i < len(out); i++ {
		if out[i].AtHours < out[i-1].AtHours {
			t.Fatalf("expanded history unsorted at %d: %+v", i, out)
		}
	}
}

func TestCapHintFactor(t *testing.T) {
	if f := (Burst{}).CapHintFactor(); f != 1 {
		t.Fatalf("zero burst factor %v", f)
	}
	b := Burst{RowProb: 0.5, RowMean: 2, RowMax: 5, BankProb: 0.25, BankMean: 2, BankMax: 9}
	if f := b.CapHintFactor(); f != 1+0.5*4+0.25*8 {
		t.Fatalf("factor %v", f)
	}
}
