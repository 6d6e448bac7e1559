// Package stats provides the small statistical helpers the experiment
// harness uses: means, standard deviations, normal-approximation confidence
// intervals, and normalisation.
package stats

import (
	"fmt"
	"math"
)

// Mean returns the arithmetic mean of xs. It panics on empty input:
// averaging nothing is a harness bug, not a data condition.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: mean of empty slice")
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeoMean returns the geometric mean of xs, which must all be positive.
// Performance ratios are conventionally aggregated geometrically.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: geometric mean of empty slice")
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			panic(fmt.Sprintf("stats: geometric mean of non-positive value %v", x))
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// StdDev returns the sample standard deviation (n-1 denominator). A
// single sample carries no spread information, so its deviation is zero.
// Only an empty slice is a harness bug and panics.
func StdDev(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: standard deviation of empty slice")
	}
	if len(xs) == 1 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// CI95 returns the half-width of the 95% confidence interval of the mean
// under the normal approximation (1.96 * stderr). Like StdDev it reports
// a zero half-width for a single sample and panics only on empty input.
func CI95(xs []float64) float64 {
	return 1.96 * StdDev(xs) / math.Sqrt(float64(len(xs)))
}

// Normalize returns xs scaled by 1/base. It panics on a zero base.
func Normalize(xs []float64, base float64) []float64 {
	if base == 0 {
		panic("stats: normalise by zero")
	}
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / base
	}
	return out
}

// MinMax returns the smallest and largest values in xs.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		panic("stats: min/max of empty slice")
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}
