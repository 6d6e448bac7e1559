package stats

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("mean wrong")
	}
	if Mean([]float64{5}) != 5 {
		t.Fatal("singleton mean wrong")
	}
}

func TestStdDev(t *testing.T) {
	got := StdDev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	// Known sample: variance = 32/7.
	want := math.Sqrt(32.0 / 7)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("StdDev = %v, want %v", got, want)
	}
}

func TestCI95ShrinksWithSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	small := make([]float64, 20)
	large := make([]float64, 2000)
	for i := range large {
		v := rng.NormFloat64()
		if i < len(small) {
			small[i] = v
		}
		large[i] = v
	}
	if CI95(large) >= CI95(small) {
		t.Fatal("more samples must tighten the interval")
	}
}

func TestMeanBounds(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			// Exclude magnitudes whose sum could overflow float64.
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e300 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		lo, hi := slices.Min(xs), slices.Max(xs)
		m := Mean(xs)
		return m >= lo-1e-9 && m <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"mean empty":   func() { Mean(nil) },
		"stddev empty": func() { StdDev(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
