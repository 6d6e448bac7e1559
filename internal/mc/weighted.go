package mc

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"arcc/internal/rng"
	"arcc/internal/stats"
)

// Weighted jobs: Monte Carlo whose trials carry an importance-sampling
// likelihood ratio. A trial fills a vector of per-dimension observations
// (e.g. one faulty-page fraction per lifetime year) and returns its
// weight against the target distribution; the engine folds every
// dimension into a stats.Weighted estimator, so the result carries the
// unbiased weighted mean, a confidence interval, and the effective
// sample size — in O(Dims) memory regardless of the trial count.
// Plain (unaccelerated) sampling is the weight-1 special case, and
// stats.Weighted keeps its weighted sum as a plain running sum, so a
// weights-all-one job reproduces a legacy sum-and-divide accumulator bit
// for bit: same additions, same shard-order merge.

// WeightedJob describes one weighted Monte Carlo computation.
type WeightedJob struct {
	// Trials is the total number of trials to run. Must be positive.
	Trials int
	// Seed is the base seed; shard i draws from a stream seeded with
	// Seed ^ splitmix64(i), exactly as in Job.
	Seed int64
	// Dims is the length of the observation vector each trial fills.
	// Must be positive.
	Dims int
	// SketchDims lists the dimensions (indexes < Dims, no duplicates)
	// whose raw observations are additionally folded into a quantile
	// sketch. Sketches record the unweighted values, so their quantiles
	// are meaningful only when every trial weight is 1 — callers running
	// accelerated (weighted) jobs should leave this empty.
	SketchDims []int
	// SketchK is the per-level sketch capacity (0 = stats.DefaultSketchK).
	SketchK int
	// NewScratch, optional, allocates a per-worker scratch workspace with
	// the same capacity-only contract as Job.NewScratch.
	NewScratch func() any
	// Trial runs trial number trial (0-based, global across shards),
	// drawing from the worker's rng.Source reseeded to the shard's stream
	// as Job.TrialScratch does: it writes one observation per dimension
	// into vals (zeroed by the engine before every call, len == Dims) and
	// returns the trial's likelihood ratio against the target
	// distribution — 1 for plain sampling. The weight must be finite and
	// non-negative. scratch is nil when NewScratch is.
	Trial func(src *rng.Source, trial int, scratch any, vals []float64) float64
}

// WeightedSet is the result of a weighted job: one estimator per
// dimension plus the requested quantile sketches, merged across shards
// in shard-index order. Fields are exported so callers can read the
// estimators directly; treat them as read-only.
type WeightedSet struct {
	// Dims holds one weighted estimator per observation dimension.
	Dims []stats.Weighted
	// SketchDims and Sketches mirror WeightedJob.SketchDims: Sketches[j]
	// summarises dimension SketchDims[j].
	SketchDims []int
	Sketches   []*stats.QuantileSketch
}

// Sketch returns the quantile sketch of dimension dim, or nil when the
// job did not request one for it.
func (s *WeightedSet) Sketch(dim int) *stats.QuantileSketch {
	for j, d := range s.SketchDims {
		if d == dim {
			return s.Sketches[j]
		}
	}
	return nil
}

// Merge folds another set into the receiver, dimension by dimension.
// Like every streaming merge the result depends on the merge order; the
// engine always merges in shard-index order.
func (s *WeightedSet) Merge(o *WeightedSet) {
	if len(o.Dims) != len(s.Dims) || len(o.Sketches) != len(s.Sketches) {
		panic("mc: merging weighted sets of different shape")
	}
	for i := range s.Dims {
		s.Dims[i].Merge(o.Dims[i])
	}
	for j := range s.Sketches {
		s.Sketches[j].Merge(o.Sketches[j])
	}
}

func (s *WeightedSet) add(vals []float64, w float64) {
	if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
		panic(fmt.Sprintf("mc: trial weight %v is not a likelihood ratio", w))
	}
	for i := range s.Dims {
		s.Dims[i].Add(vals[i], w)
	}
	for j, d := range s.SketchDims {
		s.Sketches[j].Add(vals[d])
	}
}

// RunWeightedCtx executes the job and returns the shard-order merge of
// all per-shard estimator sets; a cancelled context returns
// (nil, ErrCanceled) within one shard boundary.
func RunWeightedCtx(ctx context.Context, job WeightedJob, opts Options) (*WeightedSet, error) {
	if job.Dims <= 0 {
		panic(fmt.Sprintf("mc: non-positive dimension count %d", job.Dims))
	}
	if job.Trial == nil {
		panic("mc: weighted job needs Trial")
	}
	seen := make(map[int]bool, len(job.SketchDims))
	for _, d := range job.SketchDims {
		if d < 0 || d >= job.Dims {
			panic(fmt.Sprintf("mc: sketch dimension %d outside [0, %d)", d, job.Dims))
		}
		if seen[d] {
			panic(fmt.Sprintf("mc: duplicate sketch dimension %d", d))
		}
		seen[d] = true
	}
	acc, err := RunCtx(ctx, job.engineJob(), opts)
	if err != nil {
		return nil, err
	}
	return acc.(*weightedAcc).set, nil
}

// engineJob is the engine job a weighted job runs as: one weightedAcc per
// shard, its observation buffer zeroed before every trial.
func (job WeightedJob) engineJob() Job {
	return Job{
		Trials: job.Trials,
		Seed:   job.Seed,
		NewAcc: func() Accumulator {
			return &weightedAcc{set: newWeightedSet(job), vals: make([]float64, job.Dims)}
		},
		NewScratch: job.NewScratch,
		TrialScratch: func(src *rng.Source, trial int, a Accumulator, scratch any) {
			wa := a.(*weightedAcc)
			for i := range wa.vals {
				wa.vals[i] = 0
			}
			w := job.Trial(src, trial, scratch, wa.vals)
			wa.set.add(wa.vals, w)
		},
	}
}

// newWeightedSet returns the empty estimator set of one shard of job.
func newWeightedSet(job WeightedJob) *WeightedSet {
	set := &WeightedSet{Dims: make([]stats.Weighted, job.Dims)}
	if len(job.SketchDims) > 0 {
		set.SketchDims = append([]int(nil), job.SketchDims...)
		set.Sketches = make([]*stats.QuantileSketch, len(job.SketchDims))
		for j := range set.Sketches {
			set.Sketches[j] = stats.NewQuantileSketch(job.SketchK)
		}
	}
	return set
}

// weightedAcc is the per-shard accumulator of a weighted job: the
// estimator set plus the shard's reusable observation buffer (capacity
// only — zeroed before every trial — so it is excluded from Merge and
// from the checkpoint image).
type weightedAcc struct {
	set  *WeightedSet
	vals []float64
}

func (a *weightedAcc) Merge(other Accumulator) {
	a.set.Merge(other.(*weightedAcc).set)
}

// weightedFormat leads every weighted-set blob. No gob stream starts
// with it (gob opens with a message length, whose first byte is below
// 0x80 or at least 0xF8), so a shard snapshot written in the gob image
// earlier versions used fails on its first byte and re-runs.
const weightedFormat = 0x81

// MarshalBinary makes weighted jobs checkpointable (see
// CheckpointConfig). The image is a fixed little-endian layout of
// 64-bit words after the format byte:
//
//	len(Dims), then per dimension SumWX SumW SumW2 Y.Count Y.Mean Y.M2
//	len(SketchDims), then the sketched dimensions
//	per sketch: K, N, len(Levels), then per level its length and items
//
// Floats are stored as raw IEEE-754 bits, so the round trip is bit-exact
// and equal sets encode to equal bytes. The buffer is sized exactly, so
// encoding allocates once.
func (a *weightedAcc) MarshalBinary() ([]byte, error) {
	s := a.set
	n := 1 + 8 + 48*len(s.Dims) + 8 + 8*len(s.SketchDims)
	for _, sk := range s.Sketches {
		n += 24
		for _, lvl := range sk.Levels {
			n += 8 + 8*len(lvl)
		}
	}
	le := binary.LittleEndian
	b := append(make([]byte, 0, n), weightedFormat)
	b = le.AppendUint64(b, uint64(len(s.Dims)))
	for _, d := range s.Dims {
		b = le.AppendUint64(b, math.Float64bits(d.SumWX))
		b = le.AppendUint64(b, math.Float64bits(d.SumW))
		b = le.AppendUint64(b, math.Float64bits(d.SumW2))
		b = le.AppendUint64(b, uint64(d.Y.Count))
		b = le.AppendUint64(b, math.Float64bits(d.Y.Mean))
		b = le.AppendUint64(b, math.Float64bits(d.Y.M2))
	}
	b = le.AppendUint64(b, uint64(len(s.SketchDims)))
	for _, d := range s.SketchDims {
		b = le.AppendUint64(b, uint64(d))
	}
	for _, sk := range s.Sketches {
		b = le.AppendUint64(b, uint64(sk.K))
		b = le.AppendUint64(b, uint64(sk.N))
		b = le.AppendUint64(b, uint64(len(sk.Levels)))
		for _, lvl := range sk.Levels {
			b = le.AppendUint64(b, uint64(len(lvl)))
			for _, v := range lvl {
				b = le.AppendUint64(b, math.Float64bits(v))
			}
		}
	}
	return b, nil
}

// UnmarshalBinary restores a shard's estimator set from MarshalBinary
// bytes. Every count is checked against the bytes left before anything
// is allocated for it, and trailing bytes are an error. The receiver
// must be fresh from the job's NewAcc: its empty set is the shape the
// snapshot has to match (see checkShape), so a blob from a job of
// another shape fails here and the engine re-runs its shard.
func (a *weightedAcc) UnmarshalBinary(b []byte) error {
	if len(b) == 0 || b[0] != weightedFormat {
		return errors.New("mc: weighted snapshot is not in the fixed layout")
	}
	r := wordReader{b: b[1:]}
	set := &WeightedSet{Dims: make([]stats.Weighted, r.count(48))}
	for i := range set.Dims {
		d := &set.Dims[i]
		d.SumWX, d.SumW, d.SumW2 = r.float(), r.float(), r.float()
		d.Y.Count, d.Y.Mean, d.Y.M2 = int64(r.word()), r.float(), r.float()
	}
	// Each sketch takes a dimension word plus at least its K, N and level
	// count.
	if n := r.count(8 + 24); n > 0 {
		set.SketchDims = make([]int, n)
		for j := range set.SketchDims {
			set.SketchDims[j] = int(r.word())
		}
		set.Sketches = make([]*stats.QuantileSketch, n)
		for j := range set.Sketches {
			sk := &stats.QuantileSketch{K: int(r.word()), N: int64(r.word())}
			if nl := r.count(8); nl > 0 {
				sk.Levels = make([][]float64, nl)
			}
			for i := range sk.Levels {
				lvl := make([]float64, r.count(8))
				for k := range lvl {
					lvl[k] = r.float()
				}
				sk.Levels[i] = lvl
			}
			set.Sketches[j] = sk
		}
	}
	if r.short {
		return errors.New("mc: weighted snapshot is truncated")
	}
	if len(r.b) > 0 {
		return fmt.Errorf("mc: weighted snapshot has %d trailing bytes", len(r.b))
	}
	if err := a.set.checkShape(set); err != nil {
		return err
	}
	a.set = set
	return nil
}

// wordReader reads little-endian 64-bit words off a snapshot. Once a read
// runs past the end, or a count claims more elements than the remaining
// bytes can hold, short is set and every later read yields zero, so the
// decode loops finish without allocating for the bogus count.
type wordReader struct {
	b     []byte
	short bool
}

func (r *wordReader) word() uint64 {
	if len(r.b) < 8 {
		r.b, r.short = nil, true
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *wordReader) float() float64 { return math.Float64frombits(r.word()) }

// count reads an element count whose elements take at least size bytes
// each.
func (r *wordReader) count(size int) int {
	n := r.word()
	if n > uint64(len(r.b)/size) {
		r.b, r.short = nil, true
		return 0
	}
	return int(n)
}

// checkShape reports why o — a decoded snapshot — cannot stand in for the
// shard set s: a different dimension count, different sketched
// dimensions, a missing sketch or one of another capacity (Merge would
// panic on any of these, or the run would return a set of the wrong
// shape), or a sketch whose items do not weigh its observation count
// (its quantiles would be meaningless).
func (s *WeightedSet) checkShape(o *WeightedSet) error {
	if len(o.Dims) != len(s.Dims) {
		return fmt.Errorf("mc: weighted snapshot has %d dimensions, want %d", len(o.Dims), len(s.Dims))
	}
	if !slices.Equal(o.SketchDims, s.SketchDims) || len(o.Sketches) != len(s.Sketches) {
		return fmt.Errorf("mc: weighted snapshot sketches dimensions %v, want %v", o.SketchDims, s.SketchDims)
	}
	for j, sk := range o.Sketches {
		if sk == nil || sk.K != s.Sketches[j].K {
			return fmt.Errorf("mc: weighted snapshot sketch %d is missing or has another capacity", j)
		}
		// Level i items weigh 2^i each; together they must weigh N.
		rem := sk.N
		for i, lvl := range sk.Levels {
			if rem < 0 || (len(lvl) > 0 && (i >= 63 || int64(len(lvl)) > rem>>i)) {
				rem = -1
				break
			}
			rem -= int64(len(lvl)) << i
		}
		if rem != 0 {
			return fmt.Errorf("mc: weighted snapshot sketch %d items do not weigh its %d observations", j, sk.N)
		}
	}
	return nil
}
