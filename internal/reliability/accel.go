package reliability

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"arcc/internal/stats"
)

// Rare-event acceleration for the lifetime Monte Carlos. At field rates
// most channels see zero faults over their whole lifespan, so the plain
// estimators spend nearly every trial adding zero; the accelerated paths
// draw fault histories from an importance-sampling proposal (see
// faultmodel's conditional and tilted samplers) and weight each trial by
// its exact likelihood ratio, reaching the same target confidence
// interval with orders of magnitude fewer trials. DESIGN.md
// "Rare-event acceleration" has the derivation and the determinism
// contract.

// AccelMode selects the sampling proposal of an accelerated lifetime
// Monte Carlo.
type AccelMode int

const (
	// AccelNone is plain sampling: every trial weight is 1 and the
	// estimate reproduces the unaccelerated functions bit for bit.
	AccelNone AccelMode = iota
	// AccelConditional samples conditioned on at least one fault in the
	// lifespan. Exact (not just unbiased) for both lifetime metrics,
	// because a zero-fault channel contributes exactly zero to them.
	AccelConditional
	// AccelTilted samples with all fault rates scaled by Accel.Tilt.
	AccelTilted
)

// Accel selects and parameterises the acceleration of a lifetime Monte
// Carlo. The zero value is plain sampling.
type Accel struct {
	Mode AccelMode
	// Tilt is the rate-scaling factor of AccelTilted (ignored otherwise).
	// Must be positive; values above 1 make faults commoner and are the
	// useful regime.
	Tilt float64
}

// Validate reports whether the combination is usable.
func (a Accel) Validate() error {
	switch a.Mode {
	case AccelNone, AccelConditional:
		return nil
	case AccelTilted:
		if a.Tilt <= 0 || math.IsNaN(a.Tilt) || math.IsInf(a.Tilt, 0) {
			return fmt.Errorf("reliability: tilt factor %v must be positive and finite", a.Tilt)
		}
		return nil
	default:
		return fmt.Errorf("reliability: unknown acceleration mode %d", int(a.Mode))
	}
}

// String renders the accel in the form ParseAccel accepts.
func (a Accel) String() string {
	switch a.Mode {
	case AccelConditional:
		return "conditional"
	case AccelTilted:
		return "tilt:" + strconv.FormatFloat(a.Tilt, 'g', -1, 64)
	default:
		return "none"
	}
}

// ParseAccel parses an acceleration spec: "" or "none" (plain sampling),
// "conditional", or "tilt:<factor>" with a positive finite factor.
func ParseAccel(s string) (Accel, error) {
	switch {
	case s == "" || s == "none":
		return Accel{}, nil
	case s == "conditional":
		return Accel{Mode: AccelConditional}, nil
	case strings.HasPrefix(s, "tilt:"):
		f, err := strconv.ParseFloat(strings.TrimPrefix(s, "tilt:"), 64)
		if err != nil {
			return Accel{}, fmt.Errorf("reliability: bad tilt factor in %q: %v", s, err)
		}
		a := Accel{Mode: AccelTilted, Tilt: f}
		if err := a.Validate(); err != nil {
			return Accel{}, err
		}
		return a, nil
	default:
		return Accel{}, fmt.Errorf("reliability: unknown acceleration %q (want none, conditional, or tilt:<factor>)", s)
	}
}

// SeriesStats is the result of a lifetime Monte Carlo: the per-year
// estimate and, when the Spec asks for CI, its uncertainty.
type SeriesStats struct {
	// Mean is the per-year estimate (years 1..len(Mean)). With AccelNone
	// it is bit-identical with or without CI; accelerated runs estimate
	// the same quantity unbiasedly.
	Mean []float64
	// CI95 is the per-year half-width of the 95% confidence interval of
	// Mean under the normal approximation; nil without CI.
	CI95 []float64
	// ESS is Kish's effective sample size of the trial weights — equal to
	// Trials for plain sampling, lower when acceleration spreads the
	// weights; zero without CI.
	ESS float64
	// Trials is the number of Monte Carlo channels actually sampled.
	Trials int
	// Accel records how the trials were drawn.
	Accel Accel
	// FinalSketch summarises the distribution of the final year's
	// per-channel value (a quantile sketch over raw observations). Only
	// LifetimeOverhead with CI at AccelNone populates it — weighted
	// observations have no meaningful raw quantiles.
	FinalSketch *stats.QuantileSketch
}
