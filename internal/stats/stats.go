// Package stats provides the small statistical helpers the experiment
// harness uses: means, standard deviations and normal-approximation
// confidence intervals.
package stats

import "math"

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
