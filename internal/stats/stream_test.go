package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestWelfordMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 500)
	var w Welford
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
		w.Add(xs[i])
	}
	if got, want := w.Mean, Mean(xs); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Welford mean %v, batch %v", got, want)
	}
	if got, want := w.StdDev(), StdDev(xs); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Welford stddev %v, batch %v", got, want)
	}
	if got, want := w.CI95(), CI95(xs); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Welford CI95 %v, batch %v", got, want)
	}
}

func TestWelfordMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var all []float64
	var merged Welford
	// Merge several chunks of uneven sizes, including empty ones.
	for _, n := range []int{0, 17, 1, 0, 400, 3} {
		var part Welford
		for i := 0; i < n; i++ {
			x := rng.ExpFloat64()
			part.Add(x)
			all = append(all, x)
		}
		merged.Merge(part)
	}
	if merged.Count != int64(len(all)) {
		t.Fatalf("merged count %d, want %d", merged.Count, len(all))
	}
	if got, want := merged.Mean, Mean(all); math.Abs(got-want) > 1e-12 {
		t.Fatalf("merged mean %v, batch %v", got, want)
	}
	if got, want := merged.Variance(), StdDev(all)*StdDev(all); math.Abs(got-want) > 1e-9 {
		t.Fatalf("merged variance %v, batch %v", got, want)
	}
}

func TestWelfordSmallCounts(t *testing.T) {
	var w Welford
	if w.Variance() != 0 || w.CI95() != 0 {
		t.Fatal("empty Welford should report zero spread")
	}
	w.Add(5)
	if w.Mean != 5 || w.Variance() != 0 || w.CI95() != 0 {
		t.Fatal("single-sample Welford should report its value and zero spread")
	}
}

func TestWeightedAllOnesMatchesPlainSums(t *testing.T) {
	// With unit weights the weighted estimator must reproduce the legacy
	// sum-and-divide accumulator bit for bit: same additions, same order.
	rng := rand.New(rand.NewSource(9))
	var e Weighted
	var sum float64
	n := 1000
	for i := 0; i < n; i++ {
		x := rng.Float64()
		e.Add(x, 1)
		sum += x
	}
	if got, want := e.Mean(), sum/float64(n); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("weighted mean %v not bit-identical to plain mean %v", got, want)
	}
	if e.ESS() != float64(n) {
		t.Fatalf("unit-weight ESS %v, want %d", e.ESS(), n)
	}
}

func TestWeightedImportanceUnbiased(t *testing.T) {
	// Estimate E[X] for X ~ Exp(1) (mean 1) by sampling Exp(1/2) (mean 2)
	// and weighting with the likelihood ratio; the weighted estimate must
	// land near 1 with a truthful confidence interval.
	rng := rand.New(rand.NewSource(10))
	var e Weighted
	for i := 0; i < 200_000; i++ {
		x := rng.ExpFloat64() * 2 // density q(x) = 0.5 e^{-x/2}
		w := math.Exp(-x) / (0.5 * math.Exp(-x/2))
		e.Add(x, w)
	}
	if math.Abs(e.Mean()-1) > 3*e.CI95() {
		t.Fatalf("IS mean %v ± %v not consistent with 1", e.Mean(), e.CI95())
	}
	if ess := e.ESS(); ess <= 0 || ess >= float64(e.Y.Count) {
		t.Fatalf("uneven weights should give 0 < ESS < N, got %v of %d", ess, e.Y.Count)
	}
}

func TestWeightedMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var whole, a, b Weighted
	for i := 0; i < 1000; i++ {
		x, w := rng.NormFloat64(), rng.Float64()
		if i < 400 {
			a.Add(x, w)
		} else {
			b.Add(x, w)
		}
		whole.Add(x, w)
	}
	sumBefore := a.SumWX + b.SumWX
	a.Merge(b)
	// The merge is exactly one addition of the partial sums; against a
	// fully serial accumulation only float tolerance holds (addition is
	// not associative — which is why the engine fixes the merge order).
	if math.Float64bits(a.SumWX) != math.Float64bits(sumBefore) {
		t.Fatal("merged SumWX is not the sum of the partial sums")
	}
	if math.Abs(a.SumWX-whole.SumWX) > 1e-9 {
		t.Fatalf("merged SumWX %v far from serial %v", a.SumWX, whole.SumWX)
	}
	if math.Abs(a.CI95()-whole.CI95()) > 1e-12 {
		t.Fatalf("merged CI95 %v, serial %v", a.CI95(), whole.CI95())
	}
	if a.Y.Count != whole.Y.Count {
		t.Fatalf("merged N %d, want %d", a.Y.Count, whole.Y.Count)
	}
}

func TestWeightedEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Mean of empty estimator should panic")
		}
	}()
	(Weighted{}).Mean()
}

// adversarialDistributions are sample generators chosen to stress the
// sketch's deterministic compaction: sorted ramps (every compaction
// discards from the same side of the ordering), constants (massive ties),
// two-point masses, heavy tails, and a sawtooth that alternates extremes.
func adversarialDistributions(rng *rand.Rand) map[string]func(i int) float64 {
	return map[string]func(i int) float64{
		"ascending":  func(i int) float64 { return float64(i) },
		"descending": func(i int) float64 { return -float64(i) },
		"constant":   func(i int) float64 { return 42 },
		"two-point":  func(i int) float64 { return float64(i & 1) },
		"uniform":    func(i int) float64 { return rng.Float64() },
		"lognormal":  func(i int) float64 { return math.Exp(3 * rng.NormFloat64()) },
		"sawtooth":   func(i int) float64 { return float64(i%97) * math.Pow(-1, float64(i%2)) },
	}
}

// exactQuantile returns the same order statistic the sketch targets on the
// full sorted sample: the smallest value whose rank reaches q*n.
func exactQuantile(sorted []float64, q float64) float64 {
	target := q * float64(len(sorted))
	idx := int(math.Ceil(target)) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// rankErr returns how far the target rank q*n falls outside the rank
// interval the value v occupies in sorted. A value with ties occupies a
// whole interval of ranks [countBelow, countAtOrBelow]; any target inside
// it is exact.
func rankErr(sorted []float64, v, q float64) float64 {
	lo := float64(sort.SearchFloat64s(sorted, v))
	hi := float64(sort.SearchFloat64s(sorted, math.Nextafter(v, math.Inf(1))))
	target := q * float64(len(sorted))
	switch {
	case target < lo:
		return lo - target
	case target > hi:
		return target - hi
	}
	return 0
}

func TestQuantileSketchVsExact(t *testing.T) {
	const n = 50_000
	rng := rand.New(rand.NewSource(12))
	for name, gen := range adversarialDistributions(rng) {
		t.Run(name, func(t *testing.T) {
			s := NewQuantileSketch(0)
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = gen(i)
				s.Add(xs[i])
			}
			sort.Float64s(xs)
			for _, q := range []float64{0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
				est := s.Quantile(q)
				// Judge in rank space: the estimate's rank interval must
				// come within 2% of the requested rank. Value-space
				// comparison would be meaningless for heavy tails, and
				// plain ranks for ties.
				if err := rankErr(xs, est, q); err > 0.02*n {
					t.Fatalf("q=%v: estimate %v has rank error %.0f of n=%d", q, est, err, n)
				}
			}
		})
	}
}

func TestQuantileSketchPropertyRandomMerges(t *testing.T) {
	// Property: however a sample is split into chunks and merged, the
	// sketch's quantiles stay within rank tolerance of the exact ones.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		n := 1000 + rng.Intn(20_000)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
		}
		whole := NewQuantileSketch(128)
		i := 0
		for i < n {
			chunk := 1 + rng.Intn(n-i)
			part := NewQuantileSketch(128)
			for j := i; j < i+chunk; j++ {
				part.Add(xs[j])
			}
			whole.Merge(part)
			i += chunk
		}
		if whole.N != int64(n) {
			t.Fatalf("trial %d: merged N %d, want %d", trial, whole.N, n)
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
			if err := rankErr(sorted, whole.Quantile(q), q); err > 0.04*float64(n)+3 {
				t.Fatalf("trial %d q=%v: rank error %.0f of n=%d", trial, q, err, n)
			}
		}
	}
}

func TestQuantileSketchDeterministicMerge(t *testing.T) {
	// Two identical add/merge sequences must produce bit-identical
	// sketches — the determinism the engine's shard-ordered fold relies on.
	build := func() *QuantileSketch {
		rng := rand.New(rand.NewSource(14))
		s := NewQuantileSketch(64)
		for c := 0; c < 10; c++ {
			part := NewQuantileSketch(64)
			for i := 0; i < 5000; i++ {
				part.Add(rng.NormFloat64())
			}
			s.Merge(part)
		}
		return s
	}
	a, b := build(), build()
	if a.N != b.N || len(a.Levels) != len(b.Levels) {
		t.Fatal("sketch shapes diverged")
	}
	for lvl := range a.Levels {
		if len(a.Levels[lvl]) != len(b.Levels[lvl]) {
			t.Fatalf("level %d lengths diverged", lvl)
		}
		for i := range a.Levels[lvl] {
			if math.Float64bits(a.Levels[lvl][i]) != math.Float64bits(b.Levels[lvl][i]) {
				t.Fatalf("level %d item %d diverged", lvl, i)
			}
		}
	}
	for _, q := range []float64{0.25, 0.5, 0.99} {
		if math.Float64bits(a.Quantile(q)) != math.Float64bits(b.Quantile(q)) {
			t.Fatalf("quantile %v diverged", q)
		}
	}
}

func TestQuantileSketchBoundedMemory(t *testing.T) {
	s := NewQuantileSketch(64)
	for i := 0; i < 1_000_000; i++ {
		s.Add(float64(i % 1009))
	}
	if got := s.size(); got > 64*len(s.Levels) {
		t.Fatalf("sketch retains %d items across %d levels (cap %d each)", got, len(s.Levels), 64)
	}
	if len(s.Levels) > 24 {
		t.Fatalf("level count %d not logarithmic", len(s.Levels))
	}
}

func TestQuantileSketchEdgeCases(t *testing.T) {
	s := NewQuantileSketch(0)
	if s.K != DefaultSketchK {
		t.Fatalf("zero capacity should default to %d, got %d", DefaultSketchK, s.K)
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s should panic", name)
			}
		}()
		f()
	}
	mustPanic("empty quantile", func() { s.Quantile(0.5) })
	mustPanic("NaN add", func() { s.Add(math.NaN()) })
	s.Add(1)
	mustPanic("q out of range", func() { s.Quantile(1.5) })
	mustPanic("mismatched K merge", func() { s.Merge(NewQuantileSketch(64)) })
	if got := s.Quantile(0.5); got != 1 {
		t.Fatalf("single-item quantile = %v, want 1", got)
	}
}

func TestStdDevCI95SingleSample(t *testing.T) {
	// A single sample has no spread: zero, not a panic.
	if got := StdDev([]float64{3.5}); got != 0 {
		t.Fatalf("StdDev singleton = %v, want 0", got)
	}
	if got := CI95([]float64{3.5}); got != 0 {
		t.Fatalf("CI95 singleton = %v, want 0", got)
	}
	for name, f := range map[string]func(){
		"StdDev": func() { StdDev(nil) },
		"CI95":   func() { CI95(nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s of empty slice should panic", name)
				}
			}()
			f()
		}()
	}
}

func BenchmarkWelfordAdd(b *testing.B) {
	var w Welford
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Add(float64(i & 1023))
	}
	sinkFloat = w.Mean
}

func BenchmarkWeightedAdd(b *testing.B) {
	var e Weighted
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Add(float64(i&1023), 0.5)
	}
	sinkFloat = e.SumWX
}

func BenchmarkQuantileSketchAdd(b *testing.B) {
	s := NewQuantileSketch(0)
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(xs[i&4095])
	}
	sinkFloat = float64(s.N)
}

func BenchmarkQuantileSketchQuantile(b *testing.B) {
	s := NewQuantileSketch(0)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		s.Add(rng.NormFloat64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFloat = s.Quantile(0.99)
	}
}

var sinkFloat float64
