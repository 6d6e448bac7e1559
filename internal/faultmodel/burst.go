package faultmodel

import (
	"fmt"
	"math"
)

// Correlated fault bursts. The field studies the rate table comes from
// observe that large-scale faults cluster: a failing row is often one of
// several physically adjacent rows taken out by the same defect, and a
// marginal sense-amp or column decoder tends to produce a burst of column
// faults within one bank. The independent-arrival model underestimates
// the tail of the faulty-page distribution in exactly the scenarios ARCC's
// page-granular upgrades are designed for, so Burst adds correlation as a
// post-pass: each primary arrival of the affected type spawns, with a
// configured probability, a burst of secondaries sharing its arrival time,
// rank, and device.
//
// Burst sizes follow a truncated geometric law: with q = 1 - 1/Mean (the
// untruncated geometric with the configured mean) and support 1..Max,
//
//	P(K = k) = q^(k-1) (1-q) / (1 - q^Max)
//
// The pmf is exported (BurstSizePMF) because the likelihood must be exact:
// the rare-event accelerated estimators weight trials by the likelihood
// ratio of the *primary* arrival process only, which stays correct because
// expansion is drawn from the identical conditional law under the nominal
// and every proposal process — the burst factors cancel in the ratio.
//
// The zero value disables bursting and consumes no randomness, so every
// unaccelerated experiment is bit-identical with and without the feature
// compiled in.

// Burst configures correlated fault expansion. The zero value is the
// independent-arrival model.
type Burst struct {
	// RowProb is the probability that a row fault arrives as a burst of
	// physically adjacent rows rather than alone.
	RowProb float64 `json:"row_prob,omitempty"`
	// RowMean is the mean of the untruncated geometric burst-size law
	// (rows per burst, >= 1); the truncation at RowMax pulls the realised
	// mean slightly below it.
	RowMean float64 `json:"row_mean,omitempty"`
	// RowMax bounds the burst size (>= 2 when RowProb > 0).
	RowMax int `json:"row_max,omitempty"`
	// BankProb/BankMean/BankMax are the same law for column faults
	// bursting within one bank.
	BankProb float64 `json:"bank_prob,omitempty"`
	BankMean float64 `json:"bank_mean,omitempty"`
	BankMax  int     `json:"bank_max,omitempty"`
}

// IsZero reports whether the burst model is disabled.
func (b Burst) IsZero() bool { return b.RowProb == 0 && b.BankProb == 0 }

// Validate reports whether the configuration is usable.
func (b Burst) Validate() error {
	check := func(kind string, prob, mean float64, max int) error {
		if prob < 0 || prob > 1 || math.IsNaN(prob) {
			return fmt.Errorf("faultmodel: %s burst probability %v outside [0,1]", kind, prob)
		}
		if prob == 0 {
			return nil
		}
		if mean < 1 || math.IsNaN(mean) || math.IsInf(mean, 0) {
			return fmt.Errorf("faultmodel: %s burst mean %v must be >= 1 and finite", kind, mean)
		}
		if max < 2 {
			return fmt.Errorf("faultmodel: %s burst max %d must be >= 2 (a burst of one is no burst)", kind, max)
		}
		return nil
	}
	if err := check("row", b.RowProb, b.RowMean, b.RowMax); err != nil {
		return err
	}
	return check("bank", b.BankProb, b.BankMean, b.BankMax)
}

// BurstSizePMF returns the truncated-geometric burst-size law on 1..max:
// out[k-1] = P(K = k) with q = 1 - 1/mean. mean must be >= 1, max >= 1.
func BurstSizePMF(mean float64, max int) []float64 {
	if mean < 1 || max < 1 {
		panic(fmt.Sprintf("faultmodel: invalid burst-size law (mean=%v max=%d)", mean, max))
	}
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

// sampleBurstSize draws from BurstSizePMF(mean, max) by inverse CDF,
// consuming exactly one uniform variate.
func sampleBurstSize(rng Uniform, mean float64, max int) int {
	q := 1 - 1/mean
	if q <= 0 {
		rng.Float64() // keep RNG consumption independent of mean
		return 1
	}
	u := rng.Float64() * (1 - math.Pow(q, float64(max)))
	w := 1 - q
	cdf := 0.0
	for k := 1; k < max; k++ {
		cdf += w
		if u < cdf {
			return k
		}
		w *= q
	}
	return max
}

// Uniform is the generator ExpandInto draws from: Float64 returns a
// uniform value in [0, 1). A lifetime trial passes its *rng.Source, and
// a *rand.Rand serves as well.
type Uniform interface {
	Float64() float64
}

// ExpandInto applies the burst model to a sorted arrival history in place:
// each row (column) primary spawns, with probability RowProb (BankProb), a
// burst of K-1 secondaries — arrivals with the same time, rank, and device,
// modelling adjacent rows (columns of the same bank) failing together. The
// expanded history is re-sorted and returned (the backing array is reused
// when capacity allows). A zero Burst returns arrivals untouched without
// consuming randomness; otherwise RNG consumption is a deterministic
// function of the primary history, so expanded experiments remain
// bit-identical at any parallelism. b must pass Validate; ExpandInto runs
// once per trial and leaves that check to the caller's setup.
func (b Burst) ExpandInto(rng Uniform, arrivals []Arrival) []Arrival {
	if b.IsZero() {
		return arrivals
	}
	n := len(arrivals)
	for i := 0; i < n; i++ {
		a := arrivals[i]
		var prob, mean float64
		var max int
		switch a.Type {
		case Row:
			prob, mean, max = b.RowProb, b.RowMean, b.RowMax
		case Column:
			prob, mean, max = b.BankProb, b.BankMean, b.BankMax
		default:
			continue
		}
		if prob == 0 || rng.Float64() >= prob {
			continue
		}
		k := sampleBurstSize(rng, mean, max)
		for j := 1; j < k; j++ {
			arrivals = append(arrivals, a)
		}
	}
	sortArrivals(arrivals)
	return arrivals
}

// CapHintFactor returns the expected growth factor ExpandInto applies to a
// worst-case (all-burstable) history, for sizing reusable arrival buffers.
func (b Burst) CapHintFactor() float64 {
	f := 1.0
	if b.RowProb > 0 {
		f += b.RowProb * float64(b.RowMax-1)
	}
	if b.BankProb > 0 {
		f += b.BankProb * float64(b.BankMax-1)
	}
	return f
}
