package stats

import (
	"fmt"
	"math"
	"sort"
)

// Streaming estimators: the batch helpers in stats.go need the whole
// sample in memory, which fleet-scale Monte Carlo sweeps cannot afford.
// The types in this file accumulate one observation at a time in O(1)
// (or bounded) memory and merge across shards, so the engine's
// shard-ordered fold (see mc.Accumulator) produces results that are
// bit-identical at any parallelism.

// Welford is an online mean/variance accumulator using Welford's
// algorithm; Merge combines two accumulators with Chan et al.'s
// pairwise update. The zero value is an empty accumulator ready for use.
//
// Fields are exported so the Monte Carlo engine can write and restore
// shard checkpoints word by word; treat them as read-only outside
// Add/Merge. Note that a merged accumulator is bit-identical across runs
// that merge in the same order, but not bit-identical to feeding every
// observation through a single Add loop — the engine's fixed shard-order
// merge is what makes results reproducible.
type Welford struct {
	// Count is the number of observations.
	Count int64
	// Mean is the running mean.
	Mean float64
	// M2 is the running sum of squared deviations from the mean.
	M2 float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.Count++
	d := x - w.Mean
	w.Mean += d / float64(w.Count)
	w.M2 += d * (x - w.Mean)
}

// Merge folds another accumulator into the receiver. The result depends
// on the merge order (float addition is not associative), so callers that
// need reproducibility must merge in a deterministic order — the Monte
// Carlo engine always merges shard accumulators in shard-index order.
func (w *Welford) Merge(o Welford) {
	if o.Count == 0 {
		return
	}
	if w.Count == 0 {
		*w = o
		return
	}
	n1, n2 := float64(w.Count), float64(o.Count)
	n := n1 + n2
	d := o.Mean - w.Mean
	w.Mean += d * n2 / n
	w.M2 += o.M2 + d*d*n1*n2/n
	w.Count += o.Count
}

// Variance returns the sample variance (n-1 denominator); zero below two
// observations (one sample carries no spread information).
func (w Welford) Variance() float64 {
	if w.Count < 2 {
		return 0
	}
	return w.M2 / float64(w.Count-1)
}

// StdDev returns the sample standard deviation; zero below two samples.
func (w Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// CI95 returns the half-width of the 95% confidence interval of the mean
// under the normal approximation; zero below two samples.
func (w Welford) CI95() float64 {
	if w.Count < 2 {
		return 0
	}
	return 1.96 * w.StdDev() / math.Sqrt(float64(w.Count))
}

// Weighted estimates E[f(X)] from weighted trials (x_i, w_i) where w_i is
// the importance-sampling likelihood ratio of trial i against the target
// distribution (w == 1 for plain sampling). The unbiased estimate is the
// plain mean of y_i = w_i*x_i; its confidence interval comes from a
// Welford accumulator over the y_i, and the effective sample size from
// the weight moments. The zero value is an empty estimator ready for use.
//
// SumWX is kept as a plain running sum — not Welford's recurrence — so
// that with all weights 1 the Mean path performs exactly the additions a
// legacy sum-and-divide accumulator performs: merged in the same shard
// order, the weighted path reproduces unweighted results bit for bit.
type Weighted struct {
	// SumWX is the running sum of w*x.
	SumWX float64
	// SumW and SumW2 are the running sums of w and w².
	SumW, SumW2 float64
	// Y accumulates y = w*x for the variance of the estimate.
	Y Welford
}

// Add folds one weighted observation into the estimator.
func (e *Weighted) Add(x, w float64) {
	y := w * x
	e.SumWX += y
	e.SumW += w
	e.SumW2 += w * w
	e.Y.Add(y)
}

// Merge folds another estimator into the receiver; like Welford.Merge the
// result depends on the merge order.
func (e *Weighted) Merge(o Weighted) {
	e.SumWX += o.SumWX
	e.SumW += o.SumW
	e.SumW2 += o.SumW2
	e.Y.Merge(o.Y)
}

// Mean returns the unbiased importance-sampling estimate of E[f(X)]: the
// plain mean of w*x. It panics on an empty estimator, mirroring Mean.
func (e Weighted) Mean() float64 {
	if e.Y.Count == 0 {
		panic("stats: mean of empty weighted estimator")
	}
	return e.SumWX / float64(e.Y.Count)
}

// CI95 returns the half-width of the 95% confidence interval of Mean;
// zero below two trials.
func (e Weighted) CI95() float64 { return e.Y.CI95() }

// ESS returns Kish's effective sample size (Σw)²/Σw² — how many plain
// trials the weighted sample is worth. Zero for an empty estimator; equal
// to the trial count when all weights are equal.
func (e Weighted) ESS() float64 {
	if e.SumW2 == 0 {
		return 0
	}
	return e.SumW * e.SumW / e.SumW2
}

// DefaultSketchK is the per-level capacity NewQuantileSketch interprets a
// zero k as: rank error around a few tenths of a percent at 10⁵
// observations, in ~2 KB per level.
const DefaultSketchK = 256

// QuantileSketch is a bounded-memory, mergeable quantile estimator: a
// deterministic multi-level compacting buffer (a simplified KLL sketch).
// Observations land in level 0; when a level fills to K items it is
// sorted and every second item (deterministically, the odd ranks) is
// promoted to the next level with doubled weight. Memory is O(K·log(n/K)).
//
// Both compaction and Merge are deterministic — no randomized offsets —
// so two runs that add the same items in the same order and merge in the
// same order produce bit-identical sketches, preserving the Monte Carlo
// engine's bit-identical-at-any-parallelism contract. The price is a
// small deterministic rank bias (≤ one rank per compaction per level)
// on top of the usual sketch error; the property tests bound the total
// error empirically.
//
// Fields are exported so the Monte Carlo engine can checkpoint a sketch
// word by word; treat them as read-only.
// NaN observations are rejected (they have no rank).
type QuantileSketch struct {
	// K is the per-level capacity.
	K int
	// N is the number of observations added (and, by construction, the
	// total weight the sketch carries).
	N int64
	// Levels[i] holds items of weight 2^i, unordered between compactions.
	Levels [][]float64
}

// NewQuantileSketch returns an empty sketch with per-level capacity k
// (0 = DefaultSketchK; otherwise k must be at least 4 and is rounded up
// to even so compactions halve exactly).
func NewQuantileSketch(k int) *QuantileSketch {
	if k == 0 {
		k = DefaultSketchK
	}
	if k < 4 {
		panic(fmt.Sprintf("stats: quantile sketch capacity %d below minimum 4", k))
	}
	k += k & 1
	return &QuantileSketch{K: k}
}

// Add folds one observation into the sketch.
func (s *QuantileSketch) Add(x float64) {
	if math.IsNaN(x) {
		panic("stats: NaN has no quantile rank")
	}
	if len(s.Levels) == 0 {
		s.Levels = append(s.Levels, make([]float64, 0, s.K))
	}
	s.Levels[0] = append(s.Levels[0], x)
	s.N++
	if len(s.Levels[0]) >= s.K {
		s.compact(0)
	}
}

// compact halves level i into level i+1, cascading while levels overflow.
// An odd item count leaves the largest item in place so the sketch's
// total weight stays exactly N.
func (s *QuantileSketch) compact(i int) {
	for ; i < len(s.Levels) && len(s.Levels[i]) >= s.K; i++ {
		if i+1 == len(s.Levels) {
			s.Levels = append(s.Levels, make([]float64, 0, s.K))
		}
		lvl := s.Levels[i]
		sort.Float64s(lvl)
		m := len(lvl) &^ 1
		for j := 1; j < m; j += 2 {
			s.Levels[i+1] = append(s.Levels[i+1], lvl[j])
		}
		if m < len(lvl) {
			lvl[0] = lvl[m] // the odd item out stays at this level
			s.Levels[i] = lvl[:1]
		} else {
			s.Levels[i] = lvl[:0]
		}
	}
}

// Merge folds another sketch into the receiver. The two sketches must
// share the same K (merging different resolutions would silently degrade
// accuracy); the result depends on the merge order like every streaming
// merge here, and the argument is not modified.
func (s *QuantileSketch) Merge(o *QuantileSketch) {
	if o == nil {
		return
	}
	if s.K != o.K {
		panic(fmt.Sprintf("stats: merging quantile sketches of capacity %d and %d", s.K, o.K))
	}
	if o.N == 0 {
		return
	}
	for lvl, items := range o.Levels {
		for len(s.Levels) <= lvl {
			s.Levels = append(s.Levels, make([]float64, 0, s.K))
		}
		s.Levels[lvl] = append(s.Levels[lvl], items...)
	}
	s.N += o.N
	for i := 0; i < len(s.Levels); i++ {
		if len(s.Levels[i]) >= s.K {
			s.compact(i)
		}
	}
}

// Quantile returns an approximation of the q-quantile (q in [0, 1]; 0 is
// the minimum, 1 the maximum). It panics on an empty sketch or a q
// outside [0, 1].
func (s *QuantileSketch) Quantile(q float64) float64 {
	if s.N == 0 {
		panic("stats: quantile of empty sketch")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic(fmt.Sprintf("stats: quantile %v outside [0, 1]", q))
	}
	type wv struct {
		v float64
		w int64
	}
	items := make([]wv, 0, s.size())
	for lvl, vals := range s.Levels {
		w := int64(1) << lvl
		for _, v := range vals {
			items = append(items, wv{v, w})
		}
	}
	sort.Slice(items, func(i, j int) bool { return items[i].v < items[j].v })
	target := q * float64(s.N)
	var cum int64
	for _, it := range items {
		cum += it.w
		if float64(cum) >= target {
			return it.v
		}
	}
	return items[len(items)-1].v
}

// size returns the number of retained items across all levels.
func (s *QuantileSketch) size() int {
	n := 0
	for _, lvl := range s.Levels {
		n += len(lvl)
	}
	return n
}
